"""Fleet timeline: replica failure/recovery events and reactive autoscaling.

A :class:`DynamicFleetRouter` lifts the static-world assumption of a plain
:class:`~repro.serving.router.ReplicaRouter`: instead of a fixed set of
replicas serving a whole trace, its fleet changes mid-run through

* scripted fleet events (:class:`~repro.serving.router.FleetEvent`:
  ``replica_down`` / ``replica_up``, mirrors of the spec's
  :class:`~repro.api.spec.FleetEventSpec`), and
* :class:`~repro.serving.autoscaler.ReactiveAutoscaler` ticks.

It is only a constructor: the sweep is
:meth:`ReplicaRouter.run <repro.serving.router.ReplicaRouter.run>`, the one
dispatch loop of every fleet, which also holds the failure and billing
semantics.  The router builds its initial replicas from the engine factory
up front and calls it again for every segment opened mid-run (a recovered
replica comes back cold; a scale-up starts cold).  Service-time estimates
stay probe-only (no EWMA feedback), and segment engines run as
``[slot i]``.  The result is an ordinary
:class:`~repro.serving.router.FleetResult` whose
:attr:`~repro.serving.router.FleetResult.timeline` carries the
replica-hours bill, failures, restarts, KV lost and the autoscaler's
decision log.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.serving.autoscaler import ReactiveAutoscaler
from repro.serving.engine import ServingEngine
from repro.serving.router import (
    DEFAULT_PROBE_CONTEXT_TOKENS,
    FleetEvent,
    FleetResult,
    ReplicaRouter,
    RoundRobinRouting,
    RoutingPolicy,
    SegmentRecord,
)
from repro.workloads.traces import RequestTrace


class DynamicFleetRouter(ReplicaRouter):
    """Routes a timestamped trace across a fleet that changes mid-run.

    Args:
        engine_factory: Builds one fresh serving engine per segment: the
            initial replicas now, every recovery and scale-up mid-run.
        initial_replicas: Slots live at ``t=0``.
        policy: Routing policy (same registry as :class:`ReplicaRouter`).
        events: Scripted ``replica_down``/``replica_up`` events; per slot
            they must alternate starting with ``replica_down`` (the spec
            layer validates this).
        autoscaler: Optional reactive controller; its ``interval_s`` sets
            the tick cadence and ``cold_start_s`` delays new replicas.
        probe_context_tokens: Context length probing each segment's
            decode-step latency for service-time estimates.
    """

    segment_label = "slot"

    def __init__(
        self,
        engine_factory: Callable[[], ServingEngine],
        initial_replicas: int,
        policy: RoutingPolicy | None = None,
        events: Sequence[FleetEvent] = (),
        autoscaler: ReactiveAutoscaler | None = None,
        probe_context_tokens: int = DEFAULT_PROBE_CONTEXT_TOKENS,
    ) -> None:
        if initial_replicas < 1:
            raise ValueError("initial_replicas must be >= 1")
        for event in events:
            if event.kind not in ("replica_down", "replica_up"):
                raise ValueError(f"unknown fleet event kind {event.kind!r}")
            if not 0 <= event.replica < initial_replicas:
                raise ValueError(
                    f"fleet event targets replica {event.replica}, outside "
                    f"[0, {initial_replicas})"
                )
        super().__init__(
            replicas=tuple(engine_factory() for _ in range(initial_replicas)),
            policy=policy if policy is not None else RoundRobinRouting(),
            probe_context_tokens=probe_context_tokens,
            ewma_alpha=0.0,
        )
        self.engine_factory = engine_factory
        self.events = tuple(sorted(events, key=lambda event: (event.at_s, event.replica)))
        self.autoscaler = autoscaler

    def run(self, trace: RequestTrace, system_name: str = "") -> FleetResult:
        return super().run(trace, system_name)


__all__ = [
    "DynamicFleetRouter",
    "FleetEvent",
    "SegmentRecord",
]
