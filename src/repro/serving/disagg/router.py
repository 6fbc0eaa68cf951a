"""The two-pool front door: prefill pool feeding a decode ReplicaRouter.

:class:`DisaggRouter` runs the phases in simulation order:

1. the :class:`~repro.serving.disagg.handoff.PrefillPool` turns the trace
   into per-request handoff receipts (finished KV plus a priced link
   transfer);
2. every decode engine is given the receipts (``engine.kv_handoff``), the
   surviving requests are re-timestamped to their KV's landing time, and
   the decode :class:`~repro.serving.router.ReplicaRouter` serves that
   trace exactly as it would any other;
3. the per-request records are stitched back into pipeline form with the
   router's :func:`~repro.serving.router.restamp` helper: arrival reset to
   the original trace arrival and ``prefill_s`` to the charged prefill, so
   TTFT/latency span the whole journey while TPOT stays pure decode.

The result is an ordinary :class:`~repro.serving.router.FleetResult` that
compares apples-to-apples against a colocated fleet run on the same trace;
its :attr:`~repro.serving.router.FleetResult.disagg` block
(:class:`DisaggReport`) carries the handoff and per-pool accounting.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.memory.lifecycle import PreemptedState
from repro.serving.disagg.handoff import PrefillPool
from repro.serving.router import FleetResult, ReplicaRouter, restamp
from repro.workloads.traces import RequestTrace


@dataclass(frozen=True)
class DisaggReport:
    """Two-pool accounting of a disaggregated run (absent for colocated).

    Attributes:
        prefill_replicas / decode_replicas: The fleet split (their sum is
            the run's total hardware, ``RunReport.num_replicas``).
        handoffs: Requests whose finished KV crossed the link.
        kv_transfer_s: Total simulated link time charged before first
            decode, summed over handoffs.
        kv_transfer_bytes: Total KV bytes shipped over the link.
        prefill_dropped: Requests no prefill replica could ever hold.
        prefill_busy_seconds: Prefill service time summed over the pool.
        prefill_makespan_s: When the last prefill replica drained.
        prefill_pool_utilization / decode_pool_utilization: Mean busy
            fraction of each pool over its makespan.
    """

    prefill_replicas: int
    decode_replicas: int
    handoffs: int
    kv_transfer_s: float
    kv_transfer_bytes: int
    prefill_dropped: int
    prefill_busy_seconds: float
    prefill_makespan_s: float
    prefill_pool_utilization: float
    decode_pool_utilization: float

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def _busy_fraction(busy_seconds: float, replicas: int, makespan_s: float) -> float:
    """Mean busy fraction of ``replicas`` over ``makespan_s`` (0 when idle)."""
    denominator = replicas * makespan_s
    if denominator <= 0:
        return 0.0
    return busy_seconds / denominator


@dataclass
class DisaggRouter:
    """Serves a trace through a prefill pool and a decode replica fleet.

    Attributes:
        prefill_pool: Dedicated prefill replicas producing handoff receipts.
        decode_router: Replica fleet serving the decode phase (its engines
            should carry no prefill config -- prompts never prefill here).
    """

    prefill_pool: PrefillPool
    decode_router: ReplicaRouter

    def run(self, trace: RequestTrace, system_name: str = "") -> FleetResult:
        """Run both phases and stitch per-request records back together."""
        phase = self.prefill_pool.run(trace)

        # Decode engines under the incremental lifecycle contract admit
        # against the *prompt* and grow chunk by chunk, so the receipt's
        # reserve-to-final chunk commitment must be stripped; legacy-contract
        # engines keep it (restore then re-commits exactly what a fresh
        # reserve(prompt, final) would).
        legacy_receipts: dict[int, PreemptedState] = {}
        lifecycle_receipts: dict[int, PreemptedState] = {}
        for request_id, record in phase.handoffs.items():
            legacy_receipts[request_id] = record.state
            lifecycle_receipts[request_id] = (
                dataclasses.replace(record.state, committed_chunks=0)
                if record.state.committed_chunks
                else record.state
            )
        for engine in self.decode_router.replicas:
            engine.kv_handoff = (
                lifecycle_receipts if engine.lifecycle_admission else legacy_receipts
            )

        decode_requests = tuple(
            dataclasses.replace(
                request, arrival_s=phase.handoffs[request.request_id].decode_arrival_s
            )
            for request in trace.requests
            if request.request_id in phase.handoffs
        )
        decode_trace = RequestTrace(dataset=trace.dataset, requests=decode_requests)
        try:
            fleet = self.decode_router.run(decode_trace, system_name=system_name)
        finally:
            for engine in self.decode_router.replicas:
                engine.kv_handoff = None

        # Stitch the pipeline back together: the decode engines saw KV
        # landing times as arrivals and charged no prefill, so reset each
        # record to the original arrival and the prefill the pool charged.
        # TTFT/latency then span queue + prefill + transfer + decode while
        # TPOT (first-to-last token) remains pure decode.
        stamps = {
            request_id: {"arrival_s": handoff.arrival_s, "prefill_s": handoff.prefill_s}
            for request_id, handoff in phase.handoffs.items()
        }
        prefill_busy_seconds = sum(phase.busy_seconds)
        decode_replicas = len(self.decode_router.replicas)
        return FleetResult.from_replicas(
            fleet.policy,
            restamp(fleet.replica_results, stamps),
            router_dropped=fleet.router_dropped + len(phase.dropped),
            timeline=fleet.timeline,
            disagg=DisaggReport(
                prefill_replicas=self.prefill_pool.replicas,
                decode_replicas=decode_replicas,
                handoffs=len(phase.handoffs),
                kv_transfer_s=phase.kv_transfer_s,
                kv_transfer_bytes=phase.kv_transfer_bytes,
                prefill_dropped=len(phase.dropped),
                prefill_busy_seconds=prefill_busy_seconds,
                prefill_makespan_s=phase.makespan_s,
                prefill_pool_utilization=_busy_fraction(
                    prefill_busy_seconds, self.prefill_pool.replicas, phase.makespan_s
                ),
                decode_pool_utilization=_busy_fraction(
                    fleet.busy_seconds, decode_replicas, fleet.makespan_s
                ),
            ),
        )
