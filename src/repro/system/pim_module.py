"""What the PIM-backed deployments share: a pool of PIM modules under a plan.

:class:`~repro.system.pim_only.PIMOnlySystem` (CENT-style, FC on PIM) and
:class:`~repro.system.xpu_pim.XPUPIMSystem` (NeuPIMs-style, FC on an xPU
next to each module) differ only in where the FC layers run.  This base
holds everything else: the fields, plan validation, TCP share-table
binding, the capacity properties, one pipeline stage's cost and the
bounded FC memo.  A subclass supplies two hooks, :meth:`_price_fc` (one
layer's FC time and breakdown for a micro-batch size) and
:meth:`_stage_time` (the stage arithmetic), and keeps ``decode_step`` and
``_tcp_decode_span`` in its own body, where perfbench patches them by name.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import LLMConfig
from repro.pim.config import PIMModuleConfig, cent_module_config
from repro.pim.simulator import CycleBreakdown
from repro.system.interconnect import InterconnectConfig
from repro.system.layers import TCPSharePrices, module_attention_time
from repro.system.parallelism import ParallelismPlan
from repro.system.pipeline import Cycles, StageCost

#: Most micro-batch sizes one system keeps in its FC memo; sizes past the
#: bound are priced without being stored.
FC_MEMO_LIMIT = 256


@dataclass
class PIMModuleSystem:
    """A pool of PIM modules serving decode attention.

    Attributes:
        model: LLM being served.
        num_modules: PIM modules in the system.
        plan: Tensor/pipeline parallelism plan (``plan.num_modules`` must
            equal ``num_modules``).
        pimphony: Which PIMphony techniques are enabled.
        module: Per-module hardware configuration (CENT's by default;
            xpu-pim redeclares it with NeuPIMs').
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
    #: :meth:`_price_fc` by micro-batch size, at most ``FC_MEMO_LIMIT`` entries.
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
            # Looked up on the instance, so a patched class attribute binds.
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
        seconds, stage_utilization = self._stage_time(
            attention_cycles, utilization, len(microbatch)
        )
        return StageCost(
            seconds=float(seconds),
            pim_utilization=float(stage_utilization),
            attention_breakdown=attention_breakdown.scaled(layers),
            fc_breakdown=self._fc_time(len(microbatch))[1].scaled(layers),
        )

    def _fc_time(self, batch_size: int) -> tuple[float, CycleBreakdown]:
        """:meth:`_price_fc`, memoised per size up to ``FC_MEMO_LIMIT`` sizes.

        The result depends only on the micro-batch size for a given system.
        """
        cost = self._fc_memo.get(batch_size)
        if cost is None:
            cost = self._price_fc(batch_size)
            if len(self._fc_memo) < FC_MEMO_LIMIT:
                self._fc_memo[batch_size] = cost
        return cost

    # -- subclass hooks --------------------------------------------------------

    def _price_fc(self, batch_size: int) -> tuple[float, CycleBreakdown]:
        """One layer's FC time for a micro-batch size and its PIM breakdown.

        The time is in the unit :meth:`_stage_time` adds it in (PIM cycles
        or xPU seconds); FC work off PIM has a zero breakdown.
        """
        raise NotImplementedError

    def _stage_time(
        self, attention_cycles: Cycles, utilization: float, batch_size: int
    ) -> tuple[Cycles, Cycles]:
        """Seconds and PIM utilization of one stage over a micro-batch.

        ``attention_cycles`` is one module's per-layer attention time at
        channel ``utilization``: a float, or an array of them for the TCP
        span, priced elementwise.
        """
        raise NotImplementedError

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
        raise NotImplementedError
