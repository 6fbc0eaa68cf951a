"""Data-parallel replica router: one front door over a fleet of serving engines.

A :class:`ReplicaRouter` fronts independent
:class:`~repro.serving.engine.ServingEngine` replicas behind the same
timestamped-arrival interface the single engine exposes.  Routing happens
the way a real L7 router does it -- online, in arrival order, on the
router's *local* view of each replica (outstanding requests, reserved KV
bytes via a shadow allocator, estimated completion times) -- and each
engine then serves its assigned requests faithfully.  Dispatch visits
every request once, so no policy can livelock the router: a request is
either assigned to a replica or dropped.

Routing policies implement :class:`RoutingPolicy`:

* :class:`RoundRobinRouting` -- cycle through replicas, state-blind.
* :class:`LeastOutstandingRouting` -- fewest in-flight requests, ties
  broken deterministically by lowest replica index.
* :class:`CapacityAwareRouting` -- prefer replicas whose shadow
  :class:`~repro.serving.interfaces.KVLifecycle` ``can_admit`` the request
  now, balancing reserved KV tokens; requests no replica could *ever* fit
  are dropped at the router instead of wedging a replica queue.
* :class:`KVBalancedRouting` -- equalise resident KV tokens per replica
  (the decode-pool default of the disaggregated topology, see
  :mod:`repro.serving.disagg`).
* :class:`SessionAffinityRouting` -- requests sharing a
  :attr:`~repro.workloads.traces.Request.session` id stick to the replica
  that saw the session first (their KV prefix lives there).

**The fleet timeline.**  Every run is one chronological heap sweep that
merges request dispatches, scripted fleet events (:class:`FleetEvent`:
``replica_down`` / ``replica_up``) and :class:`~repro.serving.autoscaler.ReactiveAutoscaler`
ticks over replica **slots**, each hosting a sequence of **segments** (one
engine lifetime).  A static fleet is the degenerate timeline: one segment
per replica and no events.  Only a
:class:`~repro.serving.fleet_events.DynamicFleetRouter` supplies events, an
autoscaler and the engine factory for segments opened mid-run.

* Failure (``replica_down`` at ``t``): the victims are the requests the
  router estimates are still in flight on that replica at ``t``.  Their
  reserved KV tokens are charged as lost and they are re-dispatched at
  ``t`` to a surviving replica, where they re-enter admission and prefill
  -- the re-warm cost.  Each victim's record gets its *original* arrival
  back, so TTFT and latency include the failure stall, plus a
  ``restarts`` count.  Requests the router estimated complete stay
  credited to the failed segment (the estimated-view approximation).
* Billing: a segment runs from its start (for a scale-up, the *decision*
  time -- cold starts are paid for) to its end (failure time, drain
  completion, or the fleet makespan); the sum is
  :attr:`FleetTimelineReport.replica_seconds`.

Fleet-level metrics merge the per-segment results:
:class:`FleetResult` recomputes TTFT/TPOT/latency percentiles over the
*union* of request records (so an N=1 fleet reports exactly the single
engine's percentiles), reports aggregate throughput as total tokens over
the fleet makespan, and carries the sweep's :class:`FleetTimelineReport`.
"""
from __future__ import annotations

import dataclasses
import heapq
import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Protocol, runtime_checkable

from repro.serving.autoscaler import SCALE_DOWN, SCALE_UP, ReactiveAutoscaler, ScalingDecision
from repro.serving.engine import EngineResult, ServingEngine
from repro.serving.interfaces import KVLifecycle, allocator_for, clamp_to_window
from repro.serving.lifecycle import LatencyStats, RequestRecord
from repro.workloads.traces import Request, RequestTrace, _with_fields

if TYPE_CHECKING:
    from repro.serving.disagg.router import DisaggReport

#: Context length used to probe each replica's decode-step latency once at
#: dispatch time; the probe seeds the router's service-time estimate.
DEFAULT_PROBE_CONTEXT_TOKENS = 1024


class ReplicaState:
    """The router's local view of one replica, updated as it dispatches.

    The router does not see the future: completion times are *estimates*
    (decode tokens times a probed step latency, plus the replica's prefill
    model when it has one).  The shadow allocator mirrors what the replica
    would reserve, which is what ``can_admit``-based routing consults --
    under the incremental lifecycle contract (an engine with an active
    preemption policy) the shadow reserves only the *prompt*, matching the
    replica's own admission rule.

    ``est_step_s`` starts from a one-off probe; a router with EWMA feedback
    overrides it with the replica's measured TPOT from earlier runs, which
    is what makes placement sharpen on heterogeneous fleets.
    """

    def __init__(
        self,
        index: int,
        engine: ServingEngine,
        probe_context_tokens: int = DEFAULT_PROBE_CONTEXT_TOKENS,
        est_step_s: float | None = None,
    ) -> None:
        self.index = index
        self.engine = engine
        self.system = engine.system
        self.lifecycle = engine.lifecycle_admission
        self.shadow: KVLifecycle = allocator_for(self.system)
        if est_step_s is None:
            probe = max(1, min(probe_context_tokens, self.system.max_context_tokens))
            est_step_s = self.system.decode_step([probe]).seconds
        self.est_step_s = est_step_s
        #: Whether the replica takes new work.  The fleet timeline clears
        #: this on failure or drain; every routing policy must skip
        #: non-accepting replicas, and the router's sweep enforces it, so
        #: dispatching to a downed replica is impossible by construction.
        self.accepting = True
        self.outstanding = 0
        self.reserved_tokens = 0
        self._completions: list[tuple[float, int]] = []
        self._assigned: dict[int, tuple[int, bool]] = {}

    def _clamped(self, request: Request) -> tuple[int, int]:
        """``(prompt, final)`` tokens the replica's engine admits the request with."""
        return clamp_to_window(request, self.system.max_context_tokens)

    def _admission_tokens(self, request: Request) -> int:
        """Tokens the replica's admission would check for this request."""
        prompt, final = self._clamped(request)
        return prompt if self.lifecycle else final

    def can_admit(self, request: Request) -> bool:
        """Whether the shadow allocator accepts the request right now."""
        return self.shadow.can_admit(self._admission_tokens(request))

    def could_ever_admit(self, request: Request) -> bool:
        """Whether an empty replica could admit the request at all."""
        return self.shadow.could_ever_fit(self._clamped(request)[1])

    def _prefill_s(self, request: Request) -> float:
        prefill = self.engine.prefill
        if prefill is None:
            return 0.0
        return prefill.model.cumulative_seconds(self._clamped(request)[0])

    def estimated_service_s(self, request: Request) -> float:
        return self.est_step_s * max(1, request.output_tokens) + self._prefill_s(request)

    def estimated_ttft_s(self, request: Request) -> float:
        """Dispatch-time TTFT estimate: prefill plus the queue ahead."""
        return self.est_step_s * (self.outstanding + 1) + self._prefill_s(request)

    def assign(self, request: Request, now_s: float) -> None:
        """Record a dispatch: bump load counters and book a completion."""
        tokens = self._admission_tokens(request)
        in_shadow = self.shadow.can_admit(tokens)
        if in_shadow:
            self.shadow.reserve(request.request_id, tokens, tokens)
        self._assigned[request.request_id] = (tokens, in_shadow)
        self.outstanding += 1
        self.reserved_tokens += tokens
        finish = now_s + self.estimated_service_s(request)
        heapq.heappush(self._completions, (finish, request.request_id))

    def drain(self, now_s: float) -> None:
        """Retire every booked completion estimated to finish by ``now_s``."""
        while self._completions and self._completions[0][0] <= now_s:
            _, request_id = heapq.heappop(self._completions)
            tokens, in_shadow = self._assigned.pop(request_id)
            if in_shadow:
                self.shadow.release(request_id)
            self.outstanding -= 1
            self.reserved_tokens -= tokens

    def in_flight(self) -> dict[int, int]:
        """Estimated in-flight requests as ``{request_id: reserved tokens}``.

        The fleet timeline reads this at a ``replica_down`` event to pick
        the failure's victims (and charge their reserved KV as lost) on
        the same estimated view dispatch uses.
        """
        return {request_id: tokens for request_id, (tokens, _) in self._assigned.items()}


@runtime_checkable
class RoutingPolicy(Protocol):
    """Chooses a replica for each request, in arrival order."""

    #: Short policy name used in fleet results and reports.
    name: str

    def reset(self) -> None:
        """Clear per-dispatch state; called once at the start of a run."""
        ...

    def select(self, request: Request, replicas: Sequence[ReplicaState]) -> int | None:
        """Return the replica index for ``request`` or ``None`` to drop it.

        Policies must never return a replica whose
        :attr:`ReplicaState.accepting` is cleared (downed or draining);
        with no accepting replica they return ``None``.
        """
        ...


class RoundRobinRouting:
    """Cycle through replicas, blind to load and capacity."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def select(self, request: Request, replicas: Sequence[ReplicaState]) -> int | None:
        # One full cycle at most: skip non-accepting replicas without ever
        # revisiting a slot, so a fleet with none accepting returns None.
        for _ in range(len(replicas)):
            choice = self._next % len(replicas)
            self._next += 1
            if replicas[choice].accepting:
                return choice
        return None


class LeastOutstandingRouting:
    """Smallest estimated backlog wins; ties go to the lowest replica index.

    Backlog is ``outstanding * est_step_s``: in-flight requests weighted by
    the replica's estimated per-token service time.  On a homogeneous
    fleet every estimate is equal, so the policy degenerates to the
    classic fewest-outstanding rule; on a heterogeneous fleet -- or once
    router EWMA feedback has updated the estimates from measured TPOT --
    a slow replica counts as "more loaded" at equal queue depth.
    """

    name = "least-outstanding"

    def reset(self) -> None:
        pass

    def select(self, request: Request, replicas: Sequence[ReplicaState]) -> int | None:
        accepting = [state for state in replicas if state.accepting]
        if not accepting:
            return None
        best = min(
            accepting,
            key=lambda state: (state.outstanding * state.est_step_s, state.index),
        )
        return best.index


class CapacityAwareRouting:
    """Route by KV capacity through the shadow ``can_admit`` protocol.

    Preference order, each tier balancing reserved KV tokens (then
    outstanding count, then index, so ties are deterministic):

    1. replicas that can admit the request *now*;
    2. replicas that could admit it on an empty cache (it will queue);
    3. nobody can ever fit it: drop at the router (``None``), so a dead or
       undersized replica never wedges the fleet.
    """

    name = "capacity-aware"

    def reset(self) -> None:
        pass

    @staticmethod
    def _load_key(state: ReplicaState) -> tuple[int, int, int]:
        return (state.reserved_tokens, state.outstanding, state.index)

    def select(self, request: Request, replicas: Sequence[ReplicaState]) -> int | None:
        accepting = [state for state in replicas if state.accepting]
        admitting = [state for state in accepting if state.can_admit(request)]
        if admitting:
            return min(admitting, key=self._load_key).index
        eventual = [state for state in accepting if state.could_ever_admit(request)]
        if eventual:
            return min(eventual, key=self._load_key).index
        return None


class KVBalancedRouting:
    """Spread reserved KV tokens evenly, ignoring momentary admission state.

    The decode-pool default for disaggregated fleets: every arriving
    request carries its whole prefilled KV, so placement should equalise
    the *resident KV* per replica (which is what stretches decode batch
    latency), not chase whichever replica happens to have free space this
    instant like :class:`CapacityAwareRouting` does.  Requests no replica
    could ever fit are dropped (``None``); ties break on outstanding count
    then replica index, so placement is deterministic.
    """

    name = "kv-balanced"

    def reset(self) -> None:
        pass

    def select(self, request: Request, replicas: Sequence[ReplicaState]) -> int | None:
        eligible = [
            state for state in replicas if state.accepting and state.could_ever_admit(request)
        ]
        if not eligible:
            return None
        best = min(
            eligible,
            key=lambda state: (state.reserved_tokens, state.outstanding, state.index),
        )
        return best.index


class SessionAffinityRouting:
    """Pin every session to the replica that first served it.

    Requests without a session id (and the first request of each session)
    are placed by the fallback policy -- least-outstanding unless another
    is supplied -- so affinity still spreads fresh sessions across the
    fleet when traces are replayed.
    """

    name = "session-affinity"

    def __init__(self, fallback: RoutingPolicy | None = None) -> None:
        self.fallback = fallback if fallback is not None else LeastOutstandingRouting()
        self._sessions: dict[int, int] = {}

    def reset(self) -> None:
        self._sessions.clear()
        self.fallback.reset()

    def select(self, request: Request, replicas: Sequence[ReplicaState]) -> int | None:
        if request.session is None:
            return self.fallback.select(request, replicas)
        pinned = self._sessions.get(request.session)
        if pinned is not None and pinned < len(replicas) and replicas[pinned].accepting:
            return pinned
        # Pinned replica gone (downed or draining): re-pin the session via
        # the fallback -- the prefix is lost, which is the cost of failure.
        choice = self.fallback.select(request, replicas)
        if choice is not None:
            self._sessions[request.session] = choice
        return choice


#: Heap ordering at equal timestamps: fleet events (and cold-start
#: activations) apply first, then autoscaler ticks, then dispatches.
_PRIO_EVENT = 0
_PRIO_TICK = 1
_PRIO_DISPATCH = 2


@dataclass(frozen=True)
class FleetEvent:
    """One scripted timeline event (mirror of the spec's FleetEventSpec)."""

    at_s: float
    kind: str  # "replica_down" | "replica_up"
    replica: int


@dataclass(frozen=True)
class SegmentRecord:
    """One engine lifetime on a slot, as billed in replica-hours."""

    slot: int
    start_s: float
    end_s: float
    reason: str  # "failure" | "drain" | "run-end"
    requests_served: int


@dataclass(frozen=True)
class FleetTimelineReport:
    """Timeline accounting of one routed run: billing, failures, scaling.

    Attributes:
        replica_seconds: Total provisioned replica time across segments
            (the capacity bill an autoscaler tries to shrink).
        peak_replicas: Peak concurrently provisioned replicas -- what a
            static fleet would have had to hold for the whole run.
        failures: ``replica_down`` events applied.
        restarts: Victim re-dispatches after failures (a request failed
            twice counts twice).
        kv_lost_tokens: Reserved KV tokens lost to failures (re-warmed on
            the victims' new replicas).
        scale_ups / scale_downs: Autoscaler decisions by direction.
        segments: Per-engine-lifetime billing records, ordered by slot
            then start time.
        decisions: The autoscaler's full decision log.
    """

    replica_seconds: float
    peak_replicas: int
    failures: int
    restarts: int
    kv_lost_tokens: int
    scale_ups: int
    scale_downs: int
    segments: tuple[SegmentRecord, ...] = ()
    decisions: tuple[ScalingDecision, ...] = ()

    @property
    def replica_hours(self) -> float:
        """Provisioned replica-hours (the capacity-planning currency)."""
        return self.replica_seconds / 3600.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "replica_seconds": self.replica_seconds,
            "replica_hours": self.replica_hours,
            "peak_replicas": self.peak_replicas,
            "failures": self.failures,
            "restarts": self.restarts,
            "kv_lost_tokens": self.kv_lost_tokens,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "segments": [dataclasses.asdict(segment) for segment in self.segments],
            "decisions": [dataclasses.asdict(decision) for decision in self.decisions],
        }


@dataclass(frozen=True)
class FleetResult:
    """Merged metrics of one routed serving run across all replicas.

    Percentiles are recomputed over the union of per-request records, not
    averaged across replicas, so an N=1 fleet reports exactly what the
    single engine would.
    """

    policy: str
    replica_results: tuple[EngineResult, ...]
    router_dropped: int
    latency: LatencyStats
    request_records: tuple[RequestRecord, ...]
    #: Billing, failure and scaling accounting of the router's sweep
    #: (``None`` for results merged outside a router, e.g. one engine).
    timeline: FleetTimelineReport | None = None
    #: Two-pool handoff accounting, set by
    #: :class:`~repro.serving.disagg.router.DisaggRouter` only.
    disagg: DisaggReport | None = None

    @staticmethod
    def from_replicas(
        policy: str,
        replica_results: Sequence[EngineResult],
        router_dropped: int = 0,
        timeline: FleetTimelineReport | None = None,
        disagg: DisaggReport | None = None,
    ) -> FleetResult:
        records: list[RequestRecord] = []
        for result in replica_results:
            records.extend(result.request_records)
        records.sort(key=lambda record: record.request_id)
        return FleetResult(
            policy=policy,
            replica_results=tuple(replica_results),
            router_dropped=router_dropped,
            latency=LatencyStats.from_records(records),
            request_records=tuple(records),
            timeline=timeline,
            disagg=disagg,
        )

    @property
    def num_replicas(self) -> int:
        return len(self.replica_results)

    @property
    def total_output_tokens(self) -> int:
        return sum(result.total_output_tokens for result in self.replica_results)

    @property
    def requests_served(self) -> int:
        return sum(result.requests_served for result in self.replica_results)

    @property
    def requests_dropped(self) -> int:
        """Drops at replica admission plus drops at the router."""
        engine_drops = sum(result.requests_dropped for result in self.replica_results)
        return engine_drops + self.router_dropped

    @property
    def makespan_s(self) -> float:
        """Fleet completion time: the slowest replica's makespan."""
        return max(
            (result.makespan_s for result in self.replica_results), default=0.0
        )

    @property
    def busy_seconds(self) -> float:
        return sum(result.total_seconds for result in self.replica_results)

    @property
    def aggregate_throughput_tokens_per_s(self) -> float:
        """Fleet-level tokens per wall-clock second (tokens / makespan)."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_s

    @property
    def load_imbalance(self) -> float:
        """Max over mean of per-replica busy seconds (1.0 = perfectly even)."""
        busy = [result.total_seconds for result in self.replica_results]
        mean = sum(busy) / len(busy) if busy else 0.0
        if mean <= 0:
            return 1.0
        return max(busy) / mean

    # -- prefix-cache surface ------------------------------------------------
    #
    # Per-replica hit rates are what make session-affinity vs round-robin an
    # apples-to-apples experiment: affinity concentrates a session's turns
    # (and therefore its prefix) on one replica, round-robin scatters them
    # across caches that each hold only a stale fragment.

    @property
    def prefix_hits(self) -> int:
        """Prefix-cache hits across all replicas."""
        return sum(result.prefix_hits for result in self.replica_results)

    @property
    def prefix_misses(self) -> int:
        """Prefix-cache misses across all replicas."""
        return sum(result.prefix_misses for result in self.replica_results)

    @property
    def prefix_hit_tokens(self) -> int:
        """Prompt tokens discounted by cache hits across all replicas."""
        return sum(result.prefix_hit_tokens for result in self.replica_results)

    @property
    def prefix_hit_rate(self) -> float:
        """Fleet-wide prefix-cache hit fraction (0 when the cache is off)."""
        lookups = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / lookups if lookups else 0.0

    @property
    def prefix_hit_rates(self) -> tuple[float, ...]:
        """Per-replica prefix-cache hit fractions, in replica order."""
        return tuple(result.prefix_hit_rate for result in self.replica_results)


def restamp(
    results: Sequence[EngineResult], stamps: Mapping[int, Mapping[str, Any]]
) -> list[EngineResult]:
    """Put original values back on request records after serving.

    ``stamps`` maps a request id to the record fields to overwrite (an
    engine saw a re-dispatch or a KV landing time as the arrival, so the
    fleet restores the value the request really had).  Results with a
    re-stamped record get their latency stats recomputed.
    """
    restamped = []
    for result in results:
        changed = False
        for record in result.request_records:
            stamp = stamps.get(record.request_id)
            if stamp:
                for name, value in stamp.items():
                    setattr(record, name, value)
                changed = True
        if changed:
            result = dataclasses.replace(
                result, latency=LatencyStats.from_records(result.request_records)
            )
        restamped.append(result)
    return restamped


@dataclass(eq=False)
class _Segment:
    """Mutable bookkeeping of one engine lifetime during the sweep."""

    slot: int
    start_s: float
    engine: ServingEngine
    state: ReplicaState
    requests: dict[int, Request] = field(default_factory=dict)
    reason: str = "run-end"
    #: Failure time, or the drain decision time of a drained segment.
    closed_s: float = 0.0


class _Timeline:
    """One chronological sweep of a router's fleet (see :meth:`ReplicaRouter.run`).

    Slots are appended, never removed, so ``current[i]`` is always slot
    ``i``'s latest segment and the policy's view lists one state per slot
    (the position == index invariant every routing policy relies on);
    downed or draining slots simply stop ``accepting``.
    """

    def __init__(self, router: ReplicaRouter, trace: RequestTrace) -> None:
        self.router = router
        self.scaler = router.autoscaler
        self.heap: list[tuple[float, int, int, tuple[Any, ...]]] = []
        self.seq = itertools.count()
        #: Every segment in opening order; ``current`` holds each slot's latest.
        self.segments: list[_Segment] = []
        self.current: list[_Segment] = []
        #: Failure re-dispatches per request id.
        self.restarts: dict[int, int] = {}
        self.pending_dispatches = 0
        self.tick_scheduled = False
        # Provisioned = accepting or cold-starting; the peak is what static
        # provisioning would have had to hold for the whole run.
        self.provisioned = self.peak_replicas = len(router.replicas)
        self.failures = self.kv_lost_tokens = self.dropped = 0
        self.last_time_s = 0.0

        if self.scaler is not None:
            self.scaler.reset()
        router.policy.reset()
        for engine in router.replicas:
            self._open(len(self.current), 0.0, engine, accepting=True)
        for request in trace.requests:
            self._push_dispatch(request.arrival_s, request)
        for event in router.events:
            self._push(event.at_s, _PRIO_EVENT, (event.kind, event.replica))
        if self.scaler is not None and trace.requests:
            self._push(self.scaler.interval_s, _PRIO_TICK, ("tick",))
            self.tick_scheduled = True

    def _push(self, at_s: float, priority: int, payload: tuple[Any, ...]) -> None:
        heapq.heappush(self.heap, (at_s, priority, next(self.seq), payload))

    def _push_dispatch(self, at_s: float, request: Request) -> None:
        self._push(at_s, _PRIO_DISPATCH, ("dispatch", request))
        self.pending_dispatches += 1

    def _open(
        self, slot: int, start_s: float, engine: ServingEngine | None, accepting: bool
    ) -> None:
        """Start a segment on ``slot`` (appending the slot if it is new)."""
        if engine is None:
            assert self.router.engine_factory is not None
            engine = self.router.engine_factory()
        state = ReplicaState(
            slot,
            engine,
            self.router.probe_context_tokens,
            est_step_s=self.router._service_estimates.get(slot),
        )
        state.accepting = accepting
        segment = _Segment(slot, start_s, engine, state)
        self.segments.append(segment)
        if slot == len(self.current):
            self.current.append(segment)
        else:
            self.current[slot] = segment

    def sweep(self) -> _Timeline:
        """Apply every event, tick and dispatch in timestamp order."""
        while self.heap:
            at_s, _, _, payload = heapq.heappop(self.heap)
            self.last_time_s = max(self.last_time_s, at_s)
            kind = payload[0]
            if kind == "replica_down":
                self.provisioned -= 1
                self._fail(payload[1], at_s)
            elif kind == "replica_up":
                self._open(payload[1], at_s, None, accepting=True)
                self.provisioned += 1
                self.peak_replicas = max(self.peak_replicas, self.provisioned)
            elif kind == "activate":
                self.current[payload[1]].state.accepting = True
            elif kind == "tick":
                self._tick(at_s)
            else:
                self._dispatch(at_s, payload[1])
        return self

    def _fail(self, slot: int, at_s: float) -> None:
        segment = self.current[slot]
        if segment.reason == "failure":
            return  # validated specs never double-down a slot
        state = segment.state
        state.drain(at_s)
        for request_id, tokens in sorted(state.in_flight().items()):
            victim = segment.requests.pop(request_id, None)
            if victim is None:
                continue
            self.kv_lost_tokens += tokens
            self.restarts[request_id] = self.restarts.get(request_id, 0) + 1
            self._push_dispatch(at_s, _with_fields(victim, arrival_s=at_s))
        state.accepting = False
        segment.reason = "failure"
        segment.closed_s = at_s
        self.failures += 1
        # Victim re-dispatches may arrive after the tick chain idled out;
        # restart it so the autoscaler can react to the failure.
        scaler = self.scaler
        if scaler is not None and not self.tick_scheduled and self.pending_dispatches > 0:
            self._push(at_s + scaler.interval_s, _PRIO_TICK, ("tick",))
            self.tick_scheduled = True

    def _tick(self, at_s: float) -> None:
        scaler = self.scaler
        assert scaler is not None
        accepting = [segment.state for segment in self.current if segment.state.accepting]
        for state in accepting:
            state.drain(at_s)
        action = scaler.decide(
            at_s,
            provisioned_replicas=self.provisioned,
            accepting_replicas=len(accepting),
            outstanding=[state.outstanding for state in accepting],
        )
        if action == SCALE_UP:
            slot = len(self.current)
            self._open(slot, at_s, None, accepting=False)
            self._push(at_s + scaler.cold_start_s, _PRIO_EVENT, ("activate", slot))
            self.provisioned += 1
            self.peak_replicas = max(self.peak_replicas, self.provisioned)
        elif action == SCALE_DOWN and accepting:
            victim = min(accepting, key=lambda state: (state.outstanding, -state.index))
            victim.accepting = False
            segment = self.current[victim.index]
            segment.reason = "drain"
            segment.closed_s = at_s
            self.provisioned -= 1
        if self.pending_dispatches > 0:
            self._push(at_s + scaler.interval_s, _PRIO_TICK, ("tick",))
        else:
            self.tick_scheduled = False

    def _dispatch(self, at_s: float, request: Request) -> None:
        self.pending_dispatches -= 1
        view = [segment.state for segment in self.current]
        for state in view:
            state.drain(at_s)
        choice = self.router._select(request, view)
        if choice is None:
            self.dropped += 1
            return
        segment = self.current[choice]
        if self.scaler is not None and self.scaler.signal == "ttft-ewma":
            self.scaler.observe_ttft(segment.state.estimated_ttft_s(request))
        segment.state.assign(request, at_s)
        segment.requests[request.request_id] = request

    def report(
        self, segments: Sequence[_Segment], results: Sequence[EngineResult]
    ) -> FleetTimelineReport:
        """Bill every served segment and roll up the timeline counters."""
        fleet_end_s = max(
            max((result.makespan_s for result in results), default=0.0), self.last_time_s
        )
        records = []
        for segment, result in zip(segments, results, strict=True):
            if segment.reason == "failure":
                end_s = segment.closed_s
            elif segment.reason == "drain":
                # Billed until the last in-flight request finishes (the
                # drain decision itself if the slot was already idle).
                end_s = max(segment.closed_s, result.makespan_s, segment.start_s)
            else:
                end_s = max(segment.start_s, fleet_end_s)
            records.append(
                SegmentRecord(
                    segment.slot, segment.start_s, end_s, segment.reason, result.requests_served
                )
            )
        decisions = tuple(self.scaler.decisions) if self.scaler is not None else ()
        scale_ups = sum(1 for decision in decisions if decision.action == SCALE_UP)
        return FleetTimelineReport(
            replica_seconds=sum(record.end_s - record.start_s for record in records),
            peak_replicas=self.peak_replicas,
            failures=self.failures,
            restarts=sum(self.restarts.values()),
            kv_lost_tokens=self.kv_lost_tokens,
            scale_ups=scale_ups,
            scale_downs=len(decisions) - scale_ups,
            segments=tuple(records),
            decisions=decisions,
        )


@dataclass
class ReplicaRouter:
    """Routes a timestamped trace across N independent serving engines.

    Attributes:
        replicas: The serving engines fronted by this router (at least one;
            they may be heterogeneous).  They are the fleet's slots at
            ``t=0``.
        policy: Routing policy (default round-robin).
        probe_context_tokens: Context length used to probe each replica's
            decode-step latency for the router's service-time estimates.
        ewma_alpha: Feedback weight for measured per-replica TPOT.  After
            every :meth:`run`, each replica's service-time estimate is
            updated as ``(1 - alpha) * old + alpha * measured_tpot`` and
            used by the *next* dispatch, so load-dependent slowness a
            single-request probe cannot see (batching, long contexts)
            sharpens placement over successive runs.  ``0`` disables
            feedback and keeps probe-only estimates.
    """

    replicas: Sequence[ServingEngine]
    policy: RoutingPolicy = field(default_factory=RoundRobinRouting)
    probe_context_tokens: int = DEFAULT_PROBE_CONTEXT_TOKENS
    ewma_alpha: float = 0.3
    #: Learned per-replica step-time estimates (replica index -> seconds).
    _service_estimates: dict[int, float] = field(default_factory=dict, init=False, repr=False)
    #: Timeline inputs only a :class:`~repro.serving.fleet_events.DynamicFleetRouter`
    #: sets: scripted events, the autoscaler, and the factory building the
    #: engine of every segment opened mid-run.  A static fleet has none.
    events: tuple[FleetEvent, ...] = field(default=(), init=False, repr=False)
    autoscaler: ReactiveAutoscaler | None = field(default=None, init=False, repr=False)
    engine_factory: Callable[[], ServingEngine] | None = field(default=None, init=False, repr=False)
    #: Segment engines run as ``f"{system}[{segment_label} {slot}]"``.
    segment_label: ClassVar[str] = "replica"

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("a ReplicaRouter needs at least one replica")
        if self.probe_context_tokens < 1:
            raise ValueError("probe_context_tokens must be >= 1")
        if not 0.0 <= self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be within [0, 1]")

    @property
    def service_time_estimates(self) -> dict[int, float]:
        """EWMA-learned per-replica step-time estimates (empty before feedback)."""
        return dict(self._service_estimates)

    def _update_estimates(
        self, segments: Sequence[_Segment], results: Sequence[EngineResult]
    ) -> None:
        """Fold each slot's measured mean TPOT into its EWMA estimate."""
        if self.ewma_alpha <= 0.0:
            return
        for segment, result in zip(segments, results, strict=True):
            measured = result.latency.tpot_mean_s
            if measured <= 0.0:
                # Single-token requests report TPOT 0 (no inter-token gap),
                # which used to leave the estimate frozen forever; fall
                # back to the mean *decode* step latency.  Busy seconds
                # also include chunked-prefill work and preemption lumps,
                # which would inflate a per-step estimate by orders of
                # magnitude on prompt-heavy traces, so strip them first
                # (blocking prefill never charges the busy clock).
                decode_seconds = result.total_seconds - result.preemption_overhead_s
                if result.prefill_mode == "chunked":
                    decode_seconds -= result.prefill_seconds_total
                measured = decode_seconds / result.steps if result.steps else 0.0
            if measured <= 0.0:
                continue  # replica served nothing this run
            previous = self._service_estimates.get(segment.slot)
            if previous is None:
                self._service_estimates[segment.slot] = measured
            else:
                self._service_estimates[segment.slot] = (
                    (1.0 - self.ewma_alpha) * previous + self.ewma_alpha * measured
                )

    @classmethod
    def homogeneous(
        cls,
        engine_factory: Callable[[], ServingEngine],
        num_replicas: int,
        policy: RoutingPolicy | None = None,
        probe_context_tokens: int = DEFAULT_PROBE_CONTEXT_TOKENS,
        ewma_alpha: float = 0.3,
    ) -> ReplicaRouter:
        """Build a router over ``num_replicas`` identical engines."""
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        return cls(
            replicas=tuple(engine_factory() for _ in range(num_replicas)),
            policy=policy if policy is not None else RoundRobinRouting(),
            probe_context_tokens=probe_context_tokens,
            ewma_alpha=ewma_alpha,
        )

    def _select(self, request: Request, view: Sequence[ReplicaState]) -> int | None:
        """The policy's slot for ``request``, held to the accepting contract."""
        choice = self.policy.select(request, view)
        if choice is None:
            return None
        if not 0 <= choice < len(view):
            raise ValueError(
                f"policy {self.policy.name!r} chose replica {choice} for request "
                f"{request.request_id}; fleet has {len(view)} replicas"
            )
        if not view[choice].accepting:
            raise ValueError(
                f"policy {self.policy.name!r} chose non-accepting replica "
                f"{choice} for request {request.request_id}; downed or "
                "draining replicas must be skipped"
            )
        return choice

    def dispatch(self, trace: RequestTrace) -> list[int | None]:
        """The slot serving each request (``None`` if dropped), in trace order.

        Runs the same sweep as :meth:`run` without serving anything, so a
        failure victim is reported at the slot it was re-dispatched to.
        """
        placement = {
            request_id: segment.slot
            for segment in _Timeline(self, trace).sweep().segments
            for request_id in segment.requests
        }
        return [placement.get(request.request_id) for request in trace.requests]

    def run(self, trace: RequestTrace, system_name: str = "") -> FleetResult:
        """Sweep the fleet timeline, then serve every segment to completion.

        Each segment's engine serves its requests in ``(arrival_s,
        request_id)`` order; failure victims get their original arrival
        and a ``restarts`` count back afterwards.
        """
        timeline = _Timeline(self, trace).sweep()
        segments = sorted(timeline.segments, key=lambda segment: (segment.slot, segment.start_s))
        results = []
        for segment in segments:
            requests = sorted(
                segment.requests.values(),
                key=lambda request: (request.arrival_s, request.request_id),
            )
            base = system_name or type(segment.engine.system).__name__
            results.append(
                segment.engine.run(
                    RequestTrace(dataset=trace.dataset, requests=tuple(requests)),
                    system_name=f"{base}[{self.segment_label} {segment.slot}]",
                )
            )
        self._update_estimates(segments, results)
        report = timeline.report(segments, results)
        arrivals = {request.request_id: request.arrival_s for request in trace.requests}
        stamps = {
            request_id: {"restarts": count, "arrival_s": arrivals[request_id]}
            for request_id, count in timeline.restarts.items()
        }
        return FleetResult.from_replicas(
            self.policy.name,
            restamp(results, stamps),
            router_dropped=timeline.dropped,
            timeline=report,
        )
