"""The prefill pool: dedicated replicas that produce KV handoff receipts.

A prefill replica does exactly one thing: run a prompt's chunked prefill
to completion, then page the finished KV out.  Because nothing ever
decodes on the replica, the chunk marginals telescope --
``sum(cumulative(done + take) - cumulative(done)) ==
cumulative(prompt)`` -- so each request's service time is the closed-form
``model.cumulative_seconds(prompt)`` and the pool reduces to a serial
FCFS queueing simulation per replica.

The handoff itself reuses the preemption vocabulary: the pool ``reserve``s
the request on a real allocator (the same clamping and capacity rules a
colocated engine applies at admission), then immediately ``preempt``s it,
and the resulting :class:`~repro.memory.lifecycle.PreemptedState` receipt
-- tokens held, KV bytes, committed chunks -- is what the decode engine
later feeds to ``restore``.  The receipt's ``kv_bytes`` also prices the
transfer over the interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.lifecycle import PreemptedState
from repro.memory.static_alloc import AllocationError
from repro.serving.interfaces import DecodeSystem, allocator_for, clamp_to_window
from repro.serving.prefill import PrefillConfig
from repro.system.interconnect import InterconnectConfig
from repro.workloads.traces import RequestTrace


@dataclass(frozen=True)
class HandoffRecord:
    """One request's journey through the prefill pool and over the link.

    Attributes:
        request_id: The request handed off.
        prefill_replica: Index of the prefill replica that served it.
        arrival_s: Original trace arrival time.
        prefill_start_s: When the replica started the prompt (arrival or
            the replica freeing up, whichever is later).
        prefill_s: Prefill service time charged for the (clamped) prompt.
        prefill_finish_s: ``prefill_start_s + prefill_s``.
        kv_bytes: Bytes of finished KV shipped over the link.
        kv_transfer_s: Link time for ``kv_bytes`` (bandwidth + latency).
        decode_arrival_s: When the KV lands at the decode pool
            (``prefill_finish_s + kv_transfer_s``).
        state: The ``preempt`` receipt the decode engine restores from.
    """

    request_id: int
    prefill_replica: int
    arrival_s: float
    prefill_start_s: float
    prefill_s: float
    prefill_finish_s: float
    kv_bytes: int
    kv_transfer_s: float
    decode_arrival_s: float
    state: PreemptedState


@dataclass(frozen=True)
class PrefillPhase:
    """Outcome of running a trace through the prefill pool."""

    #: Handoff receipts by request id (dropped requests are absent).
    handoffs: dict[int, HandoffRecord]
    #: Requests no prefill replica could ever hold (exceed KV capacity).
    dropped: tuple[int, ...]
    #: Prefill service seconds accumulated per replica, in replica order.
    busy_seconds: tuple[float, ...]
    #: When the last prefill replica finished its queue.
    makespan_s: float

    @property
    def kv_transfer_s(self) -> float:
        """Total simulated seconds spent moving KV over the link."""
        return sum(record.kv_transfer_s for record in self.handoffs.values())

    @property
    def kv_transfer_bytes(self) -> int:
        """Total KV bytes shipped from the prefill pool."""
        return sum(record.kv_bytes for record in self.handoffs.values())


@dataclass
class PrefillPool:
    """Serial-FCFS event simulation of the dedicated prefill replicas.

    Attributes:
        system: System model shared with the decode pool; supplies the
            context window, the KV sizing (via its allocator) and -- through
            ``prefill`` -- the prompt cost curve.
        prefill: Chunked prefill cost model (the spec layer guarantees
            ``mode == "chunked"`` before a pool is built).
        replicas: Number of dedicated prefill replicas (>= 1).
        link: Interconnect pricing the KV transfer to the decode pool.
    """

    system: DecodeSystem
    prefill: PrefillConfig
    replicas: int
    link: InterconnectConfig

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("a PrefillPool needs at least one replica")

    def run(self, trace: RequestTrace) -> PrefillPhase:
        """Prefill every request and price its handoff to the decode pool.

        Requests are swept in arrival order (stable on ties, like engine
        admission) and each goes to the replica that frees up first, ties
        to the lowest index.  A request whose clamped final context cannot
        fit the replica's KV capacity is dropped -- the same requests a
        colocated skip-over fleet would refuse.
        """
        window = self.system.max_context_tokens
        allocators = [allocator_for(self.system) for _ in range(self.replicas)]
        free_at_s = [0.0] * self.replicas
        busy = [0.0] * self.replicas
        handoffs: dict[int, HandoffRecord] = {}
        dropped: list[int] = []
        order = sorted(
            range(len(trace.requests)), key=lambda i: trace.requests[i].arrival_s
        )
        for position in order:
            request = trace.requests[position]
            # Same clamping as engine admission: the decode side recomputes
            # these from the shared system object, so the receipt's token
            # count matches what decode admission will check.
            prompt, final = clamp_to_window(request, window)
            replica = min(range(self.replicas), key=lambda index: (free_at_s[index], index))
            allocator = allocators[replica]
            try:
                # reserve-to-final then page out: the receipt carries the
                # exact tokens/commitment a colocated admission would have
                # reserved, which is what makes decode-side restore
                # capacity-equivalent to a fresh reserve.
                allocator.reserve(request.request_id, prompt, final)
            except AllocationError:
                dropped.append(request.request_id)
                continue
            state = allocator.preempt(request.request_id)
            start_s = max(request.arrival_s, free_at_s[replica])
            prefill_s = self.prefill.model.cumulative_seconds(prompt)
            finish_s = start_s + prefill_s
            free_at_s[replica] = finish_s
            busy[replica] += prefill_s
            kv_transfer_s = self.link.point_to_point_seconds(state.kv_bytes)
            handoffs[request.request_id] = HandoffRecord(
                request_id=request.request_id,
                prefill_replica=replica,
                arrival_s=request.arrival_s,
                prefill_start_s=start_s,
                prefill_s=prefill_s,
                prefill_finish_s=finish_s,
                kv_bytes=state.kv_bytes,
                kv_transfer_s=kv_transfer_s,
                decode_arrival_s=finish_s + kv_transfer_s,
                state=state,
            )
        return PrefillPhase(
            handoffs=handoffs,
            dropped=tuple(dropped),
            busy_seconds=tuple(busy),
            makespan_s=max(free_at_s),
        )
