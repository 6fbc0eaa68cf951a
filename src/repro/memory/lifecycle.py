"""The request-lifecycle vocabulary shared by every KV-cache allocator.

Every allocator has one verb per lifecycle step -- ``can_admit``,
``reserve``, ``grow``, ``preempt``, ``restore``, ``release`` and
``could_ever_fit`` -- specified by
:class:`repro.serving.interfaces.KVLifecycle` and implemented by
:class:`~repro.memory.static_alloc.StaticAllocator` and
:class:`~repro.memory.chunked_alloc.ChunkedAllocator` (whose DPA flavour is
:class:`~repro.core.dpa.DPAController`).  The types here are what those
verbs raise and return:

* :class:`AllocationError` -- a request can never be served as asked (for
  example its final context exceeds a static ``T_max``).
* :class:`CapacityExceeded` -- its subclass for "does not fit *now*":
  raised by ``reserve``, ``grow`` and ``restore`` when the allocator cannot
  hand the memory out at the moment.  Catching it is how the serving
  engine decides to run its preemption policy.
* :class:`PreemptedState` -- the token receipt ``preempt`` returns and
  ``restore`` consumes.  It records exactly what the victim held so a
  later restore rebuilds the same reservation, and exposes ``kv_bytes``
  for swap-cost models.
"""

from __future__ import annotations

from dataclasses import dataclass


class AllocationError(RuntimeError):
    """Raised when a reservation does not fit into the remaining capacity."""


#: How evicted KV state is materialised again: ``"swap"`` pages the bytes
#: out to host memory and back; ``"recompute"`` drops them and re-runs
#: prefill at restore.  Single source of truth for
#: :class:`repro.serving.preemption.PreemptionCostModel` and
#: :class:`repro.api.spec.PreemptionSpec`.
PREEMPTION_COST_MODES = ("swap", "recompute")


class CapacityExceeded(AllocationError):
    """A request needs memory the allocator cannot provide right now.

    Raised by ``grow`` when a new chunk is required but none is free, and
    by ``restore``/``reserve`` when the requested reservation does not fit
    the remaining capacity.  Catching it is how the serving engine decides
    to run its preemption policy; callers that do not preempt can keep
    catching the :class:`AllocationError` base class.
    """


@dataclass(frozen=True)
class PreemptedState:
    """What a preempted request held, as returned by ``preempt``.

    Attributes:
        request_id: The evicted request.
        tokens: Live context tokens at preemption time; ``restore`` maps
            chunks for exactly this many tokens again.
        kv_bytes: Bytes of live KV cache evicted (tokens times the
            allocator's per-token footprint) -- the quantity swap-based
            cost models charge for paging out and back in.
        committed_chunks: Chunks the allocator had *committed* to the
            request (mapped now or promised for growth).  Zero for
            allocators without chunk commitments; ``restore`` re-commits
            at least this many so a request admitted through the legacy
            reserve-to-final contract keeps its no-mid-decode-failure
            guarantee across a preemption round-trip.
    """

    request_id: int
    tokens: int
    kv_bytes: int
    committed_chunks: int = 0

    def __post_init__(self) -> None:
        if self.tokens <= 0:
            raise ValueError("a preempted request must hold at least one token")
        if self.kv_bytes < 0 or self.committed_chunks < 0:
            raise ValueError("kv_bytes and committed_chunks must be non-negative")


__all__ = [
    "AllocationError",
    "CapacityExceeded",
    "PREEMPTION_COST_MODES",
    "PreemptedState",
]
