"""PIM-only multi-module system (CENT-style deployment).

All decode work -- FC layers and attention -- executes on the PIM modules.
Modules are organised by a (TP, PP) parallelism plan; within each module the
attention work is partitioned across channels with HFP or TCP and kernels
are scheduled statically or with DCS, according to the active
:class:`~repro.core.orchestrator.PIMphonyConfig`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.api.registry import register_system
from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import LLMConfig
from repro.pim.simulator import CycleBreakdown
from repro.serving.interfaces import StepResult
from repro.serving.prefill import transformer_prefill_flops
from repro.system.layers import module_fc_time
from repro.system.parallelism import ParallelismPlan
from repro.system.pim_module import PIMModuleSystem
from repro.system.pipeline import (
    Cycles,
    pipeline_decode_step,
    tcp_single_stage_span,
    tcp_single_stage_step,
)


@dataclass
class PIMOnlySystem(PIMModuleSystem):
    """A pool of PIM modules serving decode without any xPU.

    The fields are :class:`~repro.system.pim_module.PIMModuleSystem`'s,
    with CENT's module as the default.
    """

    def _price_fc(self, batch_size: int) -> tuple[float, CycleBreakdown]:
        """:func:`module_fc_time` of one layer: FC runs on the PIM channels."""
        return module_fc_time(
            batch_size=batch_size,
            d_model=self.model.d_model,
            kv_dim=self.model.kv_dim,
            ffn_dim=self.model.ffn_dim,
            gated_ffn=self.model.gated_ffn,
            tensor_parallel=self.plan.tensor_parallel,
            module=self.module,
            config=self.pimphony,
        )

    def _stage_time(
        self, attention_cycles: Cycles, utilization: float, batch_size: int
    ) -> tuple[Cycles, Cycles]:
        """Seconds and PIM utilization of one stage over a micro-batch.

        ``attention_cycles`` is one module's per-layer attention time at
        channel ``utilization``: a float, or an array of them for the TCP
        span.  FC work is positive in every micro-batch, so the
        busy-weighted utilization never divides by zero.
        """
        fc_cycles = self._fc_time(batch_size)[0]
        pim_cycles = attention_cycles + fc_cycles
        layer_seconds = self.module.timing.cycles_to_seconds(pim_cycles)
        sync_bytes = batch_size * self.model.d_model * self.model.dtype_bytes
        layer_seconds += 2 * self.interconnect.all_reduce_seconds(
            sync_bytes, self.plan.tensor_parallel
        )
        stage_seconds = self.plan.layers_per_stage(self.model) * layer_seconds
        stage_seconds += self.interconnect.point_to_point_seconds(sync_bytes)
        return stage_seconds, (attention_cycles * utilization + fc_cycles) / pim_cycles

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
        """See :meth:`PIMModuleSystem._tcp_decode_span`."""
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
