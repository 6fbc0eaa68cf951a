"""PIM-only multi-module system (CENT-style deployment).

All decode work -- FC layers and attention -- executes on the PIM modules.
Modules are organised by a (TP, PP) parallelism plan; within each module the
attention work is partitioned across channels with HFP or TCP and kernels
are scheduled statically or with DCS, according to the active
:class:`~repro.core.orchestrator.PIMphonyConfig`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.api.registry import register_system
from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import LLMConfig
from repro.pim.config import PIMModuleConfig, cent_module_config
from repro.pim.simulator import CycleBreakdown
from repro.serving.interfaces import StepResult
from repro.serving.prefill import transformer_prefill_flops
from repro.system.interconnect import InterconnectConfig
from repro.system.layers import (
    TCPSharePrices,
    module_attention_time,
    module_fc_time,
)
from repro.system.parallelism import ParallelismPlan
from repro.system.pipeline import (
    Cycles,
    StageCost,
    pipeline_decode_step,
    tcp_single_stage_span,
    tcp_single_stage_step,
)

#: Most micro-batch sizes one system keeps in its FC-time memo; sizes past
#: the bound are priced without being stored.
FC_MEMO_LIMIT = 256


@dataclass
class PIMOnlySystem:
    """A pool of PIM modules serving decode without any xPU.

    Attributes:
        model: LLM being served.
        num_modules: PIM modules in the system.
        plan: Tensor/pipeline parallelism plan (``plan.num_modules`` must
            equal ``num_modules``).
        pimphony: Which PIMphony techniques are enabled.
        module: Per-module hardware configuration.
        interconnect: Inter-module link model used for TP/PP communication.
    """

    model: LLMConfig
    num_modules: int
    plan: ParallelismPlan
    pimphony: PIMphonyConfig = field(default_factory=PIMphonyConfig.full)
    module: PIMModuleConfig = field(default_factory=cent_module_config)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    #: Closed-form span evaluator consumed by the fast engine; installed in
    #: ``__post_init__`` when the configuration admits one (TCP attention,
    #: single pipeline stage), ``None`` otherwise.
    decode_span: Callable[[Sequence[int], int, int], NDArray[np.float64]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: TCP prices of every per-channel share (built over :meth:`_stage_time`),
    #: bound with ``decode_span`` and read by it and by ``decode_step``.
    _share_prices: TCPSharePrices | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: :meth:`_fc_time` by micro-batch size, at most ``FC_MEMO_LIMIT`` entries.
    _fc_memo: dict[int, tuple[float, CycleBreakdown]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_modules <= 0:
            raise ValueError("num_modules must be positive")
        if self.plan.num_modules != self.num_modules:
            raise ValueError(
                f"plan {self.plan} covers {self.plan.num_modules} modules, "
                f"system has {self.num_modules}"
            )
        self.plan.validate_for(self.model)
        # TCP shares depend only on each context's channel-share ceiling and
        # a single stage makes the pipeline scan closed-form, so spans (and
        # ``decode_step`` with them) are priced over arrays.  HFP's greedy
        # packing and multi-stage pipelines are order-dependent; those scan
        # micro-batches with ``_stage_cost`` per step.
        if self.pimphony.tcp and self.plan.pipeline_parallel == 1:
            self._share_prices = TCPSharePrices(
                kv_heads_per_module=self.plan.kv_heads_per_module(self.model),
                group_size=self.model.gqa_group_size,
                head_dim=self.model.head_dim,
                module=self.module,
                config=self.pimphony,
                max_context_tokens=self.max_context_tokens,
                stage_time=self._stage_time,
            )
            self.decode_span = self._tcp_decode_span

    # -- capacity ------------------------------------------------------------

    @property
    def total_capacity_bytes(self) -> int:
        return self.num_modules * self.module.capacity_bytes

    @property
    def kv_capacity_bytes(self) -> int:
        """Capacity left for KV cache after storing the model weights."""
        return max(0, self.total_capacity_bytes - self.model.param_bytes)

    @property
    def kv_bytes_per_token(self) -> int:
        return self.model.kv_bytes_per_token

    @property
    def max_context_tokens(self) -> int:
        return self.model.context_window

    @property
    def dynamic_memory(self) -> bool:
        return self.pimphony.dpa

    @property
    def total_pim_channels(self) -> int:
        return self.num_modules * self.module.num_channels

    # -- timing ----------------------------------------------------------------

    def _stage_cost(self, microbatch: Sequence[int]) -> StageCost:
        """Cost of one pipeline stage processing one micro-batch."""
        if not microbatch:
            return StageCost(seconds=0.0, pim_utilization=0.0)
        layers = self.plan.layers_per_stage(self.model)
        attention_cycles, utilization, attention_breakdown = module_attention_time(
            context_lengths=microbatch,
            kv_heads_per_module=self.plan.kv_heads_per_module(self.model),
            group_size=self.model.gqa_group_size,
            head_dim=self.model.head_dim,
            module=self.module,
            config=self.pimphony,
        )
        fc_cycles, fc_breakdown = self._fc_time(len(microbatch))
        seconds, stage_utilization = self._stage_time(
            attention_cycles, utilization, len(microbatch), fc_cycles
        )
        return StageCost(
            seconds=float(seconds),
            pim_utilization=float(stage_utilization),
            attention_breakdown=attention_breakdown.scaled(layers),
            fc_breakdown=fc_breakdown.scaled(layers),
        )

    def _stage_time(
        self,
        attention_cycles: Cycles,
        utilization: float,
        batch_size: int,
        fc_cycles: float | None = None,
    ) -> tuple[Cycles, Cycles]:
        """Seconds and PIM utilization of one stage over a micro-batch.

        ``attention_cycles`` is one module's per-layer attention time at
        channel ``utilization``: a float, or an array of them for the TCP
        span.  ``fc_cycles`` is the micro-batch's per-layer FC time,
        priced with :meth:`_fc_time` when not given.  FC work is positive
        in every micro-batch, so the busy-weighted utilization never
        divides by zero.
        """
        if fc_cycles is None:
            fc_cycles, _ = self._fc_time(batch_size)
        pim_cycles = attention_cycles + fc_cycles
        layer_seconds = self.module.timing.cycles_to_seconds(pim_cycles)
        sync_bytes = batch_size * self.model.d_model * self.model.dtype_bytes
        layer_seconds += 2 * self.interconnect.all_reduce_seconds(
            sync_bytes, self.plan.tensor_parallel
        )
        stage_seconds = self.plan.layers_per_stage(self.model) * layer_seconds
        stage_seconds += self.interconnect.point_to_point_seconds(sync_bytes)
        return stage_seconds, (attention_cycles * utilization + fc_cycles) / pim_cycles

    def _fc_time(self, batch_size: int) -> tuple[float, CycleBreakdown]:
        """:func:`module_fc_time` of one layer for a micro-batch size.

        The result depends only on the size for a given system, so it is
        memoised per size, up to ``FC_MEMO_LIMIT`` sizes.
        """
        cost = self._fc_memo.get(batch_size)
        if cost is None:
            cost = module_fc_time(
                batch_size=batch_size,
                d_model=self.model.d_model,
                kv_dim=self.model.kv_dim,
                ffn_dim=self.model.ffn_dim,
                gated_ffn=self.model.gated_ffn,
                tensor_parallel=self.plan.tensor_parallel,
                module=self.module,
                config=self.pimphony,
            )
            if len(self._fc_memo) < FC_MEMO_LIMIT:
                self._fc_memo[batch_size] = cost
        return cost

    def decode_step(self, context_lengths: Sequence[int]) -> StepResult:
        """Latency of one decode step (every active request emits one token).

        TCP on one stage reads the system's share tables
        (:func:`~repro.system.pipeline.tcp_single_stage_step`); every
        other configuration scans micro-batches over :meth:`_stage_cost`.
        Both give the same result where both apply, on every field.
        """
        prices = self._share_prices
        scale = self.plan.tensor_parallel
        if prices is not None:
            return tcp_single_stage_step(
                context_lengths,
                prices,
                self.plan.layers_per_stage(self.model),
                scale,
                lambda batch_size: self._fc_time(batch_size)[1],
            )
        step = pipeline_decode_step(context_lengths, self.plan.pipeline_parallel, self._stage_cost)
        return StepResult(
            seconds=step.seconds,
            pim_utilization=step.pim_utilization,
            attention_breakdown=step.attention_breakdown.scaled(scale),
            fc_breakdown=step.fc_breakdown.scaled(scale),
        )

    def _tcp_decode_span(
        self, context_lengths: Sequence[int], stride: int, count: int
    ) -> NDArray[np.float64]:
        """Seconds and PIM utilization of ``count`` uniform decode evaluations.

        Row ``j`` is ``decode_step([c + j * stride for c in
        context_lengths])``'s ``(seconds, pim_utilization)``, which equals
        the micro-batch scan over :meth:`_stage_cost` bit for bit.  Both
        fold the system's share tables (``_share_prices``): a short span
        in pure Python, a long one with numpy (see
        :func:`~repro.system.pipeline.tcp_single_stage_span`).  Span-priced
        evaluations carry zero cycle breakdowns.

        Preconditions (the fast engine guarantees both): every context is
        positive, and ``stride``/``count`` are positive.
        """
        assert self._share_prices is not None  # bound with this evaluator
        return tcp_single_stage_span(context_lengths, stride, count, self._share_prices)

    def prefill_seconds(self, prompt_tokens: int) -> float:
        """Prefill latency on a system with no matrix units.

        The prompt pass runs on whatever non-PIM compute the modules carry
        (CENT's PNM processor, ``module.compute_tflops``); without one it
        falls back to the peak all-channel MAC rate.  Either way the rate
        is orders of magnitude below an xPU's, which is why PIM-only
        deployments suffer on long prompts.  As in
        :meth:`~repro.system.xpu_pim.XPUPIMSystem.prefill_seconds`, a
        single prompt traverses pipeline stages sequentially, so the rate
        uses the ``tensor_parallel`` width rather than the full module
        count.
        """
        if prompt_tokens <= 0:
            return 0.0
        fc_flops, attention_flops = transformer_prefill_flops(self.model, prompt_tokens)
        if self.module.compute_tflops > 0:
            per_module_flops_per_s = self.module.compute_tflops * 1e12
        else:
            seconds_per_cycle = self.module.timing.cycles_to_seconds(1)
            per_module_flops_per_s = self.module.peak_mac_flops_per_cycle / seconds_per_cycle
        tensor_parallel = self.plan.tensor_parallel
        compute_flops_per_s = tensor_parallel * per_module_flops_per_s
        weight_stream_seconds = self.model.param_bytes / (
            tensor_parallel * self.module.internal_bandwidth_bytes
        )
        return max((fc_flops + attention_flops) / compute_flops_per_s, weight_stream_seconds)


def _build_pim_only(
    model: LLMConfig,
    num_modules: int | None,
    plan: ParallelismPlan | None,
    pimphony: PIMphonyConfig,
) -> PIMOnlySystem:
    """Experiment-API builder: CENT-class module pool, paper-matched defaults."""
    from repro.baselines.cent import cent_system_config

    return cent_system_config(model, num_modules=num_modules, plan=plan, pimphony=pimphony)


# Self-registration: "pim-only" is the CENT-class deployment of this system.
register_system("pim-only", _build_pim_only)
