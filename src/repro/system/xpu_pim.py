"""Heterogeneous xPU + PIM system (NeuPIMs-style deployment).

Compute-intensive FC layers run on matrix units co-located with each module
(the xPU); memory-bound attention runs on the PIM channels.  Following
NeuPIMs, the two are overlapped with sub-batch interleaving, so a layer's
time is governed by the slower of the two engines plus a small
synchronisation overhead.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import LLMConfig
from repro.pim.config import PIMModuleConfig, neupims_module_config
from repro.pim.simulator import CycleBreakdown, ZERO_BREAKDOWN
from repro.serving.interfaces import StepResult
from repro.serving.prefill import transformer_prefill_flops
from repro.system.interconnect import InterconnectConfig
from repro.system.parallelism import ParallelismPlan
from repro.system.pim_module import PIMModuleSystem
from repro.system.pipeline import (
    Cycles,
    pipeline_decode_step,
    tcp_single_stage_span,
    tcp_single_stage_step,
)
from repro.system.xpu import XPUConfig, fc_layer_seconds

#: Fraction of the slower engine's time added per layer for xPU/PIM
#: synchronisation under sub-batch interleaving.
SYNC_OVERHEAD_FRAC = 0.05


@dataclass
class XPUPIMSystem(PIMModuleSystem):
    """Heterogeneous system with per-module xPU compute and PIM attention.

    The fields are :class:`~repro.system.pim_module.PIMModuleSystem`'s,
    with NeuPIMs' module and a faster link as defaults, plus the xPU.
    """

    module: PIMModuleConfig = field(default_factory=neupims_module_config)
    interconnect: InterconnectConfig = field(
        default_factory=lambda: InterconnectConfig(bandwidth_bytes_per_s=300e9, latency_s=1e-6)
    )
    xpu: XPUConfig = field(default_factory=XPUConfig)

    def _price_fc(self, batch_size: int) -> tuple[float, CycleBreakdown]:
        """:func:`fc_layer_seconds` of one layer on one module's xPU.

        FC runs off PIM, so its breakdown is zero.
        """
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
        return seconds, ZERO_BREAKDOWN

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
        fc_seconds = self._fc_time(batch_size)[0]
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

    def _tcp_decode_span(
        self, context_lengths: Sequence[int], stride: int, count: int
    ) -> NDArray[np.float64]:
        """See :meth:`PIMModuleSystem._tcp_decode_span`."""
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
