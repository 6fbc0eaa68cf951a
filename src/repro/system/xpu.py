"""xPU (NPU / matrix-unit) compute model for heterogeneous systems.

In the NeuPIMs-style system the compute-intensive FC layers run on matrix
units co-located with each module while PIM handles attention.  The xPU
model is a roofline: an FC layer is bound either by its FLOPs at the matrix
units' effective throughput or by streaming its weights from memory.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import LLMConfig
from repro.serving.interfaces import StepResult
from repro.serving.prefill import transformer_prefill_flops
from repro.system.parallelism import ParallelismPlan


@dataclass(frozen=True)
class XPUConfig:
    """One module's xPU resources.

    Attributes:
        peak_tflops: Peak FP16 matrix throughput (TFLOPS).
        compute_efficiency: Achievable fraction of peak on decode GEMMs.
        memory_bandwidth_bytes: Bandwidth available for streaming weights.
    """

    peak_tflops: float = 256.0
    compute_efficiency: float = 0.5
    memory_bandwidth_bytes: float = 1.0e12

    def __post_init__(self) -> None:
        if self.peak_tflops <= 0 or self.memory_bandwidth_bytes <= 0:
            raise ValueError("peak_tflops and memory_bandwidth_bytes must be positive")
        if not 0 < self.compute_efficiency <= 1:
            raise ValueError("compute_efficiency must be in (0, 1]")

    def gemm_seconds(
        self, flops: float, weight_bytes: float, activation_bytes: float = 0.0
    ) -> float:
        """Roofline time of one batched GEMM."""
        if flops < 0 or weight_bytes < 0 or activation_bytes < 0:
            raise ValueError("flops and byte counts must be non-negative")
        compute = flops / (self.peak_tflops * 1e12 * self.compute_efficiency)
        memory = (weight_bytes + activation_bytes) / self.memory_bandwidth_bytes
        return max(compute, memory)


def fc_layer_seconds(
    xpu: XPUConfig,
    batch_size: int,
    d_model: int,
    kv_dim: int,
    ffn_dim: int,
    gated_ffn: bool,
    tensor_parallel: int,
    dtype_bytes: int = 2,
) -> float:
    """Time of one decoder layer's FC matrices on one module's xPU."""
    if batch_size <= 0:
        return 0.0
    shapes = [
        (d_model, d_model + 2 * kv_dim),
        (d_model, d_model),
        (d_model, ffn_dim),
        (ffn_dim, d_model),
    ]
    if gated_ffn:
        shapes.append((d_model, ffn_dim))
    total = 0.0
    for in_dim, out_dim in shapes:
        out_shard = max(1, out_dim // tensor_parallel)
        flops = 2.0 * batch_size * in_dim * out_shard
        weight_bytes = float(in_dim * out_shard * dtype_bytes)
        activation_bytes = float(batch_size * (in_dim + out_shard) * dtype_bytes)
        total += xpu.gemm_seconds(flops, weight_bytes, activation_bytes)
    return total


@dataclass
class XPUOnlySystem:
    """Homogeneous xPU system: FC *and* attention on the matrix units.

    Serves as the no-PIM ablation point between the GPU baseline and the
    heterogeneous xPU+PIM system: attention degenerates to streaming every
    request's KV cache through the module's memory interface, which is what
    PIM offload removes.  Implements the
    :class:`~repro.serving.interfaces.DecodeSystem` protocol so the same
    serving engine drives it.

    Attributes:
        model: LLM being served.
        num_modules: Tensor-parallel module count.
        xpu: Per-module compute/bandwidth resources.
        capacity_bytes_per_module: Memory capacity of one module.
        paged_kv: Use block-granular (dynamic) KV allocation for admission.
    """

    model: LLMConfig
    num_modules: int
    xpu: XPUConfig = field(default_factory=XPUConfig)
    capacity_bytes_per_module: int = 32 * 1024**3
    paged_kv: bool = True

    def __post_init__(self) -> None:
        if self.num_modules <= 0:
            raise ValueError("num_modules must be positive")
        if self.capacity_bytes_per_module <= 0:
            raise ValueError("capacity_bytes_per_module must be positive")

    # -- DecodeSystem protocol ------------------------------------------------

    @property
    def total_capacity_bytes(self) -> int:
        return self.num_modules * self.capacity_bytes_per_module

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
        return self.paged_kv

    @property
    def total_pim_channels(self) -> int:
        return 0

    def _seconds(
        self, context_sum: int | NDArray[np.int64], batch: int
    ) -> float | NDArray[np.float64]:
        """Roofline seconds of decode steps of ``batch`` requests.

        ``context_sum`` is a step's exact integer context sum: a Python
        int, or an int64 array of one sum per step.  The FC roofline
        depends only on the batch size, and attention is linear in the
        sum, so both forms round identically as long as every
        intermediate stays below 2**53 (always true for realistic KV
        capacities).
        """
        model = self.model
        fc_seconds = model.num_layers * fc_layer_seconds(
            xpu=self.xpu,
            batch_size=batch,
            d_model=model.d_model,
            kv_dim=model.kv_dim,
            ffn_dim=model.ffn_dim,
            gated_ffn=model.gated_ffn,
            tensor_parallel=self.num_modules,
            dtype_bytes=model.dtype_bytes,
        )
        # Attention is memory bound: each step streams every request's KV
        # cache through the modules' memory interfaces once.
        kv_bytes = context_sum * model.kv_bytes_per_token / self.num_modules
        attention_seconds = kv_bytes / self.xpu.memory_bandwidth_bytes
        return fc_seconds + attention_seconds

    def decode_step(self, context_lengths: Sequence[int]) -> StepResult:
        """Roofline latency of one decode step across the module group."""
        contexts = [length for length in context_lengths if length > 0]
        if not contexts:
            return StepResult(seconds=0.0, pim_utilization=0.0)
        return StepResult(
            seconds=self._seconds(sum(contexts), len(contexts)), pim_utilization=0.0
        )

    def decode_span(
        self, context_lengths: Sequence[int], stride: int, count: int
    ) -> np.ndarray:
        """Seconds and PIM utilization of ``count`` uniform decode evaluations.

        Row ``j`` of the ``(count, 2)`` result equals ``decode_step([c + j *
        stride for c in context_lengths])``'s ``(seconds,
        pim_utilization)`` bit-for-bit: both price the step's context sum
        with :meth:`_seconds`.  There is no PIM, so the utilization column
        is zero; the steps also carry zero cycle breakdowns.

        Preconditions (the fast engine guarantees both): every context is
        positive, and ``stride``/``count`` are positive.
        """
        batch = len(context_lengths)
        sums = sum(context_lengths) + np.arange(count, dtype=np.int64) * (stride * batch)
        priced = np.zeros((count, 2), dtype=np.float64)
        priced[:, 0] = self._seconds(sums, batch)
        return priced

    def prefill_seconds(self, prompt_tokens: int) -> float:
        """Roofline latency of prefilling one ``prompt_tokens``-long prompt.

        Prefill is compute-friendly (one big GEMM per weight matrix), so it
        runs at the matrix units' effective throughput across all modules,
        floored by streaming the sharded weights once.
        """
        if prompt_tokens <= 0:
            return 0.0
        fc_flops, attention_flops = transformer_prefill_flops(self.model, prompt_tokens)
        compute_flops_per_s = (
            self.num_modules * self.xpu.peak_tflops * 1e12 * self.xpu.compute_efficiency
        )
        weight_stream_seconds = self.model.param_bytes / (
            self.num_modules * self.xpu.memory_bandwidth_bytes
        )
        return max((fc_flops + attention_flops) / compute_flops_per_s, weight_stream_seconds)


def _build_xpu_only(
    model: LLMConfig,
    num_modules: int | None,
    plan: ParallelismPlan | None,
    pimphony: PIMphonyConfig,
) -> XPUOnlySystem:
    """Experiment-API builder: all-matrix-unit ablation point.

    Module counts default to the NeuPIMs capacity match (4 x 32GB for 7B,
    16 for 72B).  The parallelism plan is ignored -- the system is purely
    tensor parallel -- and of the PIMphony features only DPA matters, as
    the paged-vs-static KV allocation mode.
    """
    del plan
    modules = num_modules if num_modules is not None else (4 if model.num_layers <= 40 else 16)
    return XPUOnlySystem(model=model, num_modules=modules, paged_kv=pimphony.dpa)
