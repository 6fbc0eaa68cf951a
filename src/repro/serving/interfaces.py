"""Protocols and result types shared across the serving engine layers.

The serving stack is split into three layers that only meet through the
interfaces defined here:

* **admission** (:mod:`repro.serving.admission`) decides *which* waiting
  request to try next;
* the **engine** (:mod:`repro.serving.engine`) owns the event loop, the
  simulation clock and per-request lifecycle tracking;
* the **memory system** is any :class:`KVLifecycle` allocator and the
  **compute system** any :class:`DecodeSystem` -- both pluggable, so new
  hardware models and allocation policies slot in without touching the
  engine.

:class:`KVLifecycle` is the one allocator protocol: one verb per lifecycle
step, implemented by :class:`~repro.memory.static_alloc.StaticAllocator`
and :class:`~repro.memory.chunked_alloc.ChunkedAllocator` (and so by its
subclass :class:`~repro.core.dpa.DPAController`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.lifecycle import CapacityExceeded, PreemptedState
from repro.memory.static_alloc import StaticAllocator
from repro.pim.simulator import CycleBreakdown, ZERO_BREAKDOWN
from repro.serving.prefill import SupportsPrefill

if TYPE_CHECKING:
    from repro.workloads.traces import Request

__all__ = [
    "StepResult",
    "DecodeSystem",
    "SupportsPrefill",
    "KVLifecycle",
    "CapacityExceeded",
    "PreemptedState",
    "build_allocator",
    "allocator_for",
    "clamp_to_window",
    "ServingResult",
]


@dataclass(frozen=True)
class StepResult:
    """Outcome of one decode step for the whole active batch.

    Attributes:
        seconds: Wall-clock time of the step.
        pim_utilization: Mean PIM channel busy fraction during the step
            (zero for systems without PIM).
        attention_breakdown: System-wide attention cycle breakdown (energy).
        fc_breakdown: System-wide FC cycle breakdown when FC runs on PIM.
    """

    seconds: float
    pim_utilization: float
    attention_breakdown: CycleBreakdown = ZERO_BREAKDOWN
    fc_breakdown: CycleBreakdown = ZERO_BREAKDOWN


class DecodeSystem(Protocol):
    """Interface the serving engine requires from a system model."""

    @property
    def kv_capacity_bytes(self) -> int: ...

    @property
    def kv_bytes_per_token(self) -> int: ...

    @property
    def max_context_tokens(self) -> int: ...

    @property
    def dynamic_memory(self) -> bool: ...

    @property
    def total_pim_channels(self) -> int: ...

    def decode_step(self, context_lengths: Sequence[int]) -> StepResult: ...

    # Systems whose uniform decode spans have a closed form additionally
    # expose ``decode_span(context_lengths, stride, count)``, returning a
    # ``(count, 2)`` float64 array: row ``j`` is the ``(seconds,
    # pim_utilization)`` of ``decode_step([c + j * stride for c in
    # context_lengths])``, bit for bit.  Span-priced evaluations carry zero
    # cycle breakdowns (the engine counts them in
    # ``EngineResult.span_evaluations``).  xpu-only, gpu and TCP
    # single-stage pim-only and xpu-pim have one; the attribute is absent
    # or ``None`` otherwise, and the engine then runs one ``decode_step``
    # evaluation per iteration in every mode.
    #
    # Systems that can price their own prompt-processing phase additionally
    # implement ``prefill_seconds(prompt_tokens) -> float`` (see
    # :class:`~repro.serving.prefill.SupportsPrefill`);
    # :func:`~repro.serving.prefill.prefill_model_for` adapts them into the
    # engine's :class:`~repro.serving.prefill.PrefillModel`.


@runtime_checkable
class KVLifecycle(Protocol):
    """KV-cache allocator contract: one verb per request-lifecycle step.

    * ``can_admit(tokens)`` answers whether a request needing ``tokens`` of
      context fits right now, and ``reserve`` admits it.  Passing
      ``final_tokens`` commits the request's final context up front (the
      admit-to-completion guarantee: growth inside it never fails);
      omitting it admits against only the current context.
    * ``grow`` extends a request's context.  It, ``reserve`` and
      ``restore`` raise :class:`~repro.memory.lifecycle.CapacityExceeded`
      when the memory they need is not free right now.
    * ``grow_many(request_ids, count)`` grows a batch of distinct requests
      at once and equals ``grow(request_id, count)`` for each id in order
      (the same tokens, commitments and physical placement), except that
      it is all or nothing: when any one of those grows would raise --
      ``CapacityExceeded`` for the batch's combined growth, ``KeyError``
      for an unknown id, ``AllocationError`` past a static ``T_max`` --
      it raises before changing anything.  Distinct ids are a
      precondition, not a checked error.
    * ``preempt`` / ``restore`` page a victim out and back in when a
      :class:`~repro.serving.preemption.PreemptionPolicy` picks one.
    * ``release`` frees a finished request.
    * ``could_ever_fit`` distinguishes transient pressure from requests
      that can never be served (they exceed total capacity).
    """

    capacity_bytes: int

    @property
    def used_bytes(self) -> int: ...

    @property
    def num_requests(self) -> int: ...

    def can_admit(self, tokens: int) -> bool: ...

    def could_ever_fit(self, tokens: int) -> bool: ...

    def reserve(
        self, request_id: int, initial_tokens: int, final_tokens: int | None = None
    ) -> None: ...

    def grow(self, request_id: int, count: int = 1) -> None: ...

    def grow_many(self, request_ids: Sequence[int], count: int = 1) -> None: ...

    def preempt(self, request_id: int) -> PreemptedState: ...

    def restore(self, request_id: int, state: PreemptedState) -> None: ...

    def release(self, request_id: int) -> None: ...


def build_allocator(
    capacity_bytes: int,
    bytes_per_token: int,
    max_context_tokens: int,
    dynamic: bool,
) -> KVLifecycle:
    """Construct the allocator matching a system's memory-management mode.

    Args:
        capacity_bytes: Total KV-cache capacity.
        bytes_per_token: KV bytes appended per generated token.
        max_context_tokens: ``T_max`` sizing static reservations.
        dynamic: DPA/PagedAttention-style chunked allocation when true,
            static ``T_max`` reservations otherwise.
    """
    if dynamic:
        return ChunkedAllocator(
            capacity_bytes=capacity_bytes,
            bytes_per_token=bytes_per_token,
        )
    return StaticAllocator(
        capacity_bytes=capacity_bytes,
        max_context_tokens=max_context_tokens,
        bytes_per_token=bytes_per_token,
    )


def allocator_for(system: DecodeSystem) -> KVLifecycle:
    """Build the allocator matching a system's capacity properties."""
    return build_allocator(
        capacity_bytes=system.kv_capacity_bytes,
        bytes_per_token=system.kv_bytes_per_token,
        max_context_tokens=system.max_context_tokens,
        dynamic=system.dynamic_memory,
    )


def clamp_to_window(request: Request, window: int) -> tuple[int, int]:
    """``(prompt, final)`` tokens of ``request`` served in a ``window``-token context.

    The final context is cut to the window and the prompt gives way, so
    every output token is still decoded; at least one prompt token stays.
    Engine admission, router shadows and the disaggregated prefill pool
    all clamp through this one rule.
    """
    final = min(request.prompt_tokens + request.output_tokens, window)
    return max(1, final - request.output_tokens), final


@dataclass
class ServingResult:
    """Aggregate metrics of one serving run."""

    system_name: str
    dataset: str
    total_output_tokens: int
    total_seconds: float
    steps: int
    average_batch_size: float
    peak_batch_size: int
    average_pim_utilization: float
    average_capacity_utilization: float
    attention_breakdown: CycleBreakdown = ZERO_BREAKDOWN
    fc_breakdown: CycleBreakdown = ZERO_BREAKDOWN
    total_pim_channels: int = 0
    requests_served: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.total_output_tokens / self.total_seconds

    @property
    def average_step_seconds(self) -> float:
        if self.steps == 0:
            return 0.0
        return self.total_seconds / self.steps
