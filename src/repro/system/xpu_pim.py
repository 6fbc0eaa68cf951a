"""Heterogeneous xPU + PIM system (NeuPIMs-style deployment).

Compute-intensive FC layers run on matrix units co-located with each module
(the xPU); memory-bound attention runs on the PIM channels.  Following
NeuPIMs, the two are overlapped with sub-batch interleaving, so a layer's
time is governed by the slower of the two engines plus a small
synchronisation overhead.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.api.registry import register_system
from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import LLMConfig
from repro.pim.config import PIMModuleConfig, neupims_module_config
from repro.pim.simulator import ZERO_BREAKDOWN
from repro.serving.interfaces import StepResult
from repro.serving.prefill import transformer_prefill_flops
from repro.system.interconnect import InterconnectConfig
from repro.system.layers import (
    TCPSharePrices,
    module_attention_time,
)
from repro.system.parallelism import ParallelismPlan
from repro.system.pim_only import FC_MEMO_LIMIT
from repro.system.pipeline import (
    Cycles,
    StageCost,
    pipeline_decode_step,
    tcp_single_stage_span,
    tcp_single_stage_step,
)
from repro.system.xpu import XPUConfig, fc_layer_seconds

#: Fraction of the slower engine's time added per layer for xPU/PIM
#: synchronisation under sub-batch interleaving.
SYNC_OVERHEAD_FRAC = 0.05


@dataclass
class XPUPIMSystem:
    """Heterogeneous system with per-module xPU compute and PIM attention."""

    model: LLMConfig
    num_modules: int
    plan: ParallelismPlan
    pimphony: PIMphonyConfig = field(default_factory=PIMphonyConfig.full)
    module: PIMModuleConfig = field(default_factory=neupims_module_config)
    xpu: XPUConfig = field(default_factory=XPUConfig)
    interconnect: InterconnectConfig = field(
        default_factory=lambda: InterconnectConfig(bandwidth_bytes_per_s=300e9, latency_s=1e-6)
    )
    #: Closed-form span evaluator consumed by the fast engine; installed in
    #: ``__post_init__`` for TCP attention on a single pipeline stage,
    #: ``None`` otherwise.
    decode_span: Callable[[Sequence[int], int, int], NDArray[np.float64]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: TCP prices of every per-channel share (built over :meth:`_stage_time`),
    #: bound with ``decode_span`` and read by it and by ``decode_step``.
    _share_prices: TCPSharePrices | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: :meth:`_fc_seconds` by micro-batch size, at most ``FC_MEMO_LIMIT`` entries.
    _fc_memo: dict[int, float] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_modules <= 0:
            raise ValueError("num_modules must be positive")
        if self.plan.num_modules != self.num_modules:
            raise ValueError(
                f"plan {self.plan} covers {self.plan.num_modules} modules, "
                f"system has {self.num_modules}"
            )
        self.plan.validate_for(self.model)
        # Same rule as pim-only: TCP shares make attention a per-request
        # closed form and one stage makes the pipeline choice closed-form,
        # for spans and ``decode_step`` alike.  HFP placement and
        # multi-stage pipelines depend on request order.
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
        attention_cycles, utilization, attention_breakdown = module_attention_time(
            context_lengths=microbatch,
            kv_heads_per_module=self.plan.kv_heads_per_module(self.model),
            group_size=self.model.gqa_group_size,
            head_dim=self.model.head_dim,
            module=self.module,
            config=self.pimphony,
        )
        seconds, stage_utilization = self._stage_time(
            attention_cycles, utilization, len(microbatch)
        )
        return StageCost(
            seconds=float(seconds),
            pim_utilization=float(stage_utilization),
            attention_breakdown=attention_breakdown.scaled(
                self.plan.layers_per_stage(self.model)
            ),
        )

    def _stage_time(
        self, attention_cycles: Cycles, utilization: float, batch_size: int
    ) -> tuple[Cycles, Cycles]:
        """Seconds and PIM utilization of one stage over a micro-batch.

        ``attention_cycles`` is one module's per-layer attention time at
        channel ``utilization``: a float, or an array of them for the TCP
        span.  PIM is busy for the attention share of each layer; the xPU
        FC time is positive, so a layer never takes zero seconds.  A float
        takes the built-in ``max``/``min`` (same values as the numpy ufuncs,
        without numpy-scalar dispatch).
        """
        tensor_parallel = self.plan.tensor_parallel
        attention_seconds = self.module.timing.cycles_to_seconds(attention_cycles)
        fc_seconds = self._fc_seconds(batch_size)
        if isinstance(attention_seconds, float):
            maximum, minimum = max, min
        else:
            maximum, minimum = np.maximum, np.minimum
        layer_seconds = maximum(attention_seconds, fc_seconds) * (1.0 + SYNC_OVERHEAD_FRAC)
        sync_bytes = batch_size * self.model.d_model * self.model.dtype_bytes
        layer_seconds += 2 * self.interconnect.all_reduce_seconds(sync_bytes, tensor_parallel)
        stage_seconds = self.plan.layers_per_stage(self.model) * layer_seconds
        stage_seconds += self.interconnect.point_to_point_seconds(sync_bytes)
        pim_busy_fraction = minimum(1.0, attention_seconds / layer_seconds)
        return stage_seconds, utilization * pim_busy_fraction

    def _fc_seconds(self, batch_size: int) -> float:
        """:func:`fc_layer_seconds` of one layer on one module's xPU.

        The result depends only on the micro-batch size for a given
        system, so it is memoised per size, up to ``FC_MEMO_LIMIT`` sizes.
        """
        seconds = self._fc_memo.get(batch_size)
        if seconds is None:
            seconds = fc_layer_seconds(
                xpu=self.xpu,
                batch_size=batch_size,
                d_model=self.model.d_model,
                kv_dim=self.model.kv_dim,
                ffn_dim=self.model.ffn_dim,
                gated_ffn=self.model.gated_ffn,
                tensor_parallel=self.plan.tensor_parallel,
                dtype_bytes=self.model.dtype_bytes,
            )
            if len(self._fc_memo) < FC_MEMO_LIMIT:
                self._fc_memo[batch_size] = seconds
        return seconds

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

    def decode_step(self, context_lengths: Sequence[int]) -> StepResult:
        """Latency of one decode step (every active request emits one token).

        TCP on one stage reads the system's share tables
        (:func:`~repro.system.pipeline.tcp_single_stage_step`); every
        other configuration scans micro-batches over :meth:`_stage_cost`.
        Both give the same result where both apply, on every field.  FC
        runs on the xPU, so the step has no FC breakdown.
        """
        prices = self._share_prices
        if prices is not None:
            return tcp_single_stage_step(
                context_lengths,
                prices,
                self.plan.layers_per_stage(self.model),
                self.plan.tensor_parallel,
            )
        step = pipeline_decode_step(context_lengths, self.plan.pipeline_parallel, self._stage_cost)
        return StepResult(
            seconds=step.seconds,
            pim_utilization=step.pim_utilization,
            attention_breakdown=step.attention_breakdown.scaled(self.plan.tensor_parallel),
            fc_breakdown=ZERO_BREAKDOWN,
        )

    def prefill_seconds(self, prompt_tokens: int) -> float:
        """Prefill latency: the prompt GEMMs run on the xPUs, not on PIM.

        Prefill is compute bound, which is exactly the regime PIM's GEMV
        engines are worst at, so the heterogeneous system keeps the whole
        prompt pass (attention included) on the matrix units.  A single
        prompt flows through the pipeline stages sequentially (no overlap
        to exploit), so only the ``tensor_parallel`` modules of a stage
        work on it at any instant -- the rate uses TP width, not the full
        module count.
        """
        if prompt_tokens <= 0:
            return 0.0
        fc_flops, attention_flops = transformer_prefill_flops(self.model, prompt_tokens)
        tensor_parallel = self.plan.tensor_parallel
        compute_flops_per_s = (
            tensor_parallel * self.xpu.peak_tflops * 1e12 * self.xpu.compute_efficiency
        )
        weight_stream_seconds = self.model.param_bytes / (
            tensor_parallel * self.xpu.memory_bandwidth_bytes
        )
        return max((fc_flops + attention_flops) / compute_flops_per_s, weight_stream_seconds)


def _build_xpu_pim(
    model: LLMConfig,
    num_modules: int | None,
    plan: ParallelismPlan | None,
    pimphony: PIMphonyConfig,
) -> XPUPIMSystem:
    """Experiment-API builder: NeuPIMs-class deployment, paper-matched defaults."""
    from repro.baselines.neupims import neupims_system_config

    return neupims_system_config(model, num_modules=num_modules, plan=plan, pimphony=pimphony)


# Self-registration: "xpu-pim" is the NeuPIMs-class deployment of this system.
register_system("xpu-pim", _build_xpu_pim)
