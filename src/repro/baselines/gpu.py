"""GPU baseline: A100 nodes with FlashDecoding and PagedAttention (Fig. 20).

Decoding on GPUs is memory-bandwidth bound: each decode step must stream the
model weights and every request's KV cache from HBM.  The baseline models an
A100-80GB roofline with tensor parallelism across GPUs, FlashDecoding-style
attention (high bandwidth efficiency on the KV read) and PagedAttention
(block-granular KV allocation, i.e. dynamic memory for admission purposes).
The model implements the same :class:`~repro.serving.interfaces.DecodeSystem`
protocol as the PIM systems so the same serving loop drives it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import LLMConfig
from repro.serving.interfaces import StepResult
from repro.system.interconnect import InterconnectConfig
from repro.system.parallelism import ParallelismPlan


@dataclass(frozen=True)
class GPUConfig:
    """One GPU's resources."""

    name: str = "A100-80GB"
    memory_capacity_bytes: int = 80 * 1024**3
    memory_bandwidth_bytes: float = 2.0e12
    peak_tflops: float = 312.0
    compute_efficiency: float = 0.45
    weight_stream_efficiency: float = 0.75
    attention_stream_efficiency: float = 0.85

    def __post_init__(self) -> None:
        if self.memory_capacity_bytes <= 0 or self.memory_bandwidth_bytes <= 0:
            raise ValueError("capacity and bandwidth must be positive")


def a100_config() -> GPUConfig:
    """The A100-80GB configuration used by the paper's GPU comparison."""
    return GPUConfig()


@dataclass
class GPUSystemModel:
    """Multi-GPU decode model with FlashDecoding + PagedAttention.

    Attributes:
        model: LLM being served.
        num_gpus: Tensor-parallel GPU count (memory matched to the PIM
            systems in the paper: 2 for 7B, 8 for 72B).
        gpu: Per-GPU resource description.
        flash_decoding: Use the higher attention streaming efficiency.
        paged_attention: Use block-granular (dynamic) KV allocation.
    """

    model: LLMConfig
    num_gpus: int
    gpu: GPUConfig = field(default_factory=a100_config)
    flash_decoding: bool = True
    paged_attention: bool = True
    interconnect: InterconnectConfig = field(
        default_factory=lambda: InterconnectConfig(bandwidth_bytes_per_s=600e9, latency_s=5e-6)
    )

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError("num_gpus must be positive")

    # -- DecodeSystem protocol -------------------------------------------------

    @property
    def total_capacity_bytes(self) -> int:
        return self.num_gpus * self.gpu.memory_capacity_bytes

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
        return self.paged_attention

    @property
    def total_pim_channels(self) -> int:
        return 0

    def _seconds(
        self, context_sum: int | NDArray[np.int64], batch: int
    ) -> float | NDArray[np.float64]:
        """Roofline seconds of decode steps of ``batch`` requests.

        ``context_sum`` is a step's exact integer context sum: a Python
        int, or an int64 array of one sum per step.  FC and TP-sync depend
        only on the batch size, and attention is linear in the sum, so
        both forms round identically.
        """
        model = self.model
        bandwidth_bytes_per_s = self.gpu.memory_bandwidth_bytes

        # FC layers: weights are sharded across GPUs and streamed once per
        # step; compute is batched across requests.
        weight_bytes_per_gpu = model.param_bytes / self.num_gpus
        weight_seconds = weight_bytes_per_gpu / (
            bandwidth_bytes_per_s * self.gpu.weight_stream_efficiency
        )
        fc_flops_per_gpu = 2.0 * batch * model.param_count / self.num_gpus
        compute_seconds = fc_flops_per_gpu / (
            self.gpu.peak_tflops * 1e12 * self.gpu.compute_efficiency
        )
        fc_seconds = max(weight_seconds, compute_seconds)

        # Attention: every request's KV cache is read once per step.
        attention_efficiency = (
            self.gpu.attention_stream_efficiency if self.flash_decoding else 0.45
        )
        kv_bytes = context_sum * model.kv_bytes_per_token / self.num_gpus
        attention_seconds = kv_bytes / (bandwidth_bytes_per_s * attention_efficiency)

        # TP synchronisation: two all-reduces per layer over the hidden dim.
        sync_bytes = batch * model.d_model * model.dtype_bytes
        sync_seconds = (
            2 * model.num_layers * self.interconnect.all_reduce_seconds(sync_bytes, self.num_gpus)
        )
        return (fc_seconds + attention_seconds) + sync_seconds

    def decode_step(self, context_lengths: Sequence[int]) -> StepResult:
        """Roofline latency of one decode step across the GPU group."""
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
        with :meth:`_seconds`.  A GPU has no PIM, so the utilization column
        is zero; the steps also carry zero cycle breakdowns.

        Preconditions (the fast engine guarantees both): every context is
        positive, and ``stride``/``count`` are positive.
        """
        batch = len(context_lengths)
        sums = sum(context_lengths) + np.arange(count, dtype=np.int64) * (stride * batch)
        priced = np.zeros((count, 2), dtype=np.float64)
        priced[:, 0] = self._seconds(sums, batch)
        return priced


def _build_gpu(
    model: LLMConfig,
    num_modules: int | None,
    plan: ParallelismPlan | None,
    pimphony: PIMphonyConfig,
) -> GPUSystemModel:
    """Experiment-API builder: A100 group, memory-matched GPU counts.

    ``num_modules`` maps to the GPU count (2 for 7B, 8 for 72B by default);
    the parallelism plan is ignored (pure tensor parallelism) and of the
    PIMphony features only DPA matters, as PagedAttention on/off.
    """
    del plan
    gpus = num_modules if num_modules is not None else (2 if model.num_layers <= 40 else 8)
    return GPUSystemModel(model=model, num_gpus=gpus, paged_attention=pimphony.dpa)
