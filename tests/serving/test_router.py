"""Edge-case tests for the multi-replica router and fleet metrics."""

from dataclasses import dataclass, replace

import pytest

from repro.serving.admission import CapacityAwareAdmission
from repro.serving.engine import ServingEngine
from repro.serving.interfaces import StepResult
from repro.serving.router import (
    CapacityAwareRouting,
    FleetResult,
    KVBalancedRouting,
    LeastOutstandingRouting,
    ReplicaRouter,
    ReplicaState,
    RoundRobinRouting,
    SessionAffinityRouting,
)
from repro.workloads.traces import (
    Request,
    RequestTrace,
    assign_sessions,
    partition_trace,
)


@dataclass
class ToySystem:
    """Constant-latency decode system with tunable KV capacity.

    Uses static (T_max) allocation so tiny byte-level capacities behave
    proportionally -- the chunked allocator's 1MB granularity would round
    them all down to zero.
    """

    kv_capacity_bytes: int = 1_000_000
    kv_bytes_per_token: int = 1
    max_context_tokens: int = 4096
    step_seconds: float = 0.01

    @property
    def dynamic_memory(self) -> bool:
        return False

    @property
    def total_pim_channels(self) -> int:
        return 0

    def decode_step(self, context_lengths) -> StepResult:
        if not context_lengths:
            return StepResult(seconds=0.0, pim_utilization=0.0)
        return StepResult(seconds=self.step_seconds, pim_utilization=0.0)


def make_trace(num_requests=8, prompt=64, output=4, gap_s=0.0):
    requests = tuple(
        Request(
            request_id=index,
            prompt_tokens=prompt,
            output_tokens=output,
            arrival_s=index * gap_s,
        )
        for index in range(num_requests)
    )
    return RequestTrace(dataset="toy", requests=requests)


def toy_engine(**system_kwargs) -> ServingEngine:
    return ServingEngine(system=ToySystem(**system_kwargs))


class TestDegenerateConfigs:
    def test_zero_replicas_raises(self):
        with pytest.raises(ValueError):
            ReplicaRouter(replicas=())
        with pytest.raises(ValueError):
            ReplicaRouter.homogeneous(toy_engine, num_replicas=0)

    def test_single_replica_fleet_matches_engine_exactly(self):
        trace = make_trace(num_requests=10, gap_s=0.002)
        fleet = ReplicaRouter.homogeneous(toy_engine, num_replicas=1).run(trace)
        single = toy_engine().run(trace)
        # Merged fleet percentiles are recomputed over the union of request
        # records, so with one replica they must equal the engine's own.
        assert fleet.latency == single.latency
        assert fleet.makespan_s == single.makespan_s
        assert fleet.total_output_tokens == single.total_output_tokens
        assert fleet.requests_served == single.requests_served
        assert fleet.request_records == single.request_records

    def test_empty_trace_yields_empty_fleet_result(self):
        trace = RequestTrace(dataset="toy", requests=())
        fleet = ReplicaRouter.homogeneous(toy_engine, num_replicas=3).run(trace)
        assert fleet.requests_served == 0
        assert fleet.total_output_tokens == 0
        assert fleet.aggregate_throughput_tokens_per_s == 0.0


class TestRoutingPolicies:
    def test_round_robin_cycles_deterministically(self):
        trace = make_trace(num_requests=9)
        router = ReplicaRouter.homogeneous(toy_engine, 3, policy=RoundRobinRouting())
        assert router.dispatch(trace) == [0, 1, 2, 0, 1, 2, 0, 1, 2]
        # A second dispatch resets the cursor: same trace, same assignment.
        assert router.dispatch(trace) == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_least_outstanding_breaks_ties_by_lowest_index(self):
        # Arrivals are far closer together than the estimated service time,
        # so no booked completion drains between dispatches: every pick is
        # decided purely by (outstanding, index).
        trace = make_trace(num_requests=6, gap_s=1e-6)
        router = ReplicaRouter.homogeneous(toy_engine, 3, policy=LeastOutstandingRouting())
        assert router.dispatch(trace) == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_prefers_drained_replica(self):
        # With arrivals much slower than the estimated service time the
        # booked completions drain before each dispatch, so every request
        # finds all replicas tied at zero outstanding -> replica 0.
        trace = make_trace(num_requests=4, output=1, gap_s=10.0)
        router = ReplicaRouter.homogeneous(toy_engine, 3, policy=LeastOutstandingRouting())
        assert router.dispatch(trace) == [0, 0, 0, 0]

    def test_session_affinity_pins_sessions_to_one_replica(self):
        trace = make_trace(num_requests=12, gap_s=1e-6)
        trace = assign_sessions(trace, [index % 3 for index in range(12)])
        router = ReplicaRouter.homogeneous(toy_engine, 4, policy=SessionAffinityRouting())
        assignments = router.dispatch(trace)
        by_session = {}
        for request, assignment in zip(trace.requests, assignments, strict=True):
            by_session.setdefault(request.session, set()).add(assignment)
        assert all(len(replicas) == 1 for replicas in by_session.values())
        # Three distinct sessions spread over distinct replicas (fallback is
        # least-outstanding, so fresh sessions do not pile onto replica 0).
        assert len({next(iter(v)) for v in by_session.values()}) == 3

    def test_sessionless_requests_fall_back(self):
        trace = make_trace(num_requests=4, gap_s=1e-6)
        router = ReplicaRouter.homogeneous(toy_engine, 2, policy=SessionAffinityRouting())
        assert router.dispatch(trace) == [0, 1, 0, 1]


class TestCapacityAwareRouting:
    def test_dead_replica_receives_nothing_and_fleet_completes(self):
        # Replica 0's allocator rejects every request (zero KV capacity);
        # the router must route around it without livelocking.
        engines = [toy_engine(kv_capacity_bytes=0), toy_engine()]
        router = ReplicaRouter(replicas=engines, policy=CapacityAwareRouting())
        trace = make_trace(num_requests=6)
        assignments = router.dispatch(trace)
        assert assignments == [1] * 6
        fleet = router.run(trace)
        assert fleet.requests_served == 6
        assert fleet.requests_dropped == 0

    def test_all_replicas_dead_drops_at_router(self):
        engines = [toy_engine(kv_capacity_bytes=0), toy_engine(kv_capacity_bytes=0)]
        router = ReplicaRouter(replicas=engines, policy=CapacityAwareRouting())
        trace = make_trace(num_requests=5)
        fleet = router.run(trace)
        assert fleet.router_dropped == 5
        assert fleet.requests_dropped == 5
        assert fleet.requests_served == 0

    def test_round_robin_to_dead_replica_with_skip_admission_completes(self):
        # A capacity-blind policy will hand requests to the dead replica;
        # with a skip-over admission policy the replica drops them instead
        # of wedging, and the run still terminates.
        def engine(capacity):
            return ServingEngine(
                system=ToySystem(kv_capacity_bytes=capacity),
                admission=CapacityAwareAdmission(),
            )

        router = ReplicaRouter(
            replicas=[engine(0), engine(1_000_000)], policy=RoundRobinRouting()
        )
        trace = make_trace(num_requests=6)
        fleet = router.run(trace)
        assert fleet.requests_served == 3
        assert fleet.requests_dropped == 3
        assert fleet.router_dropped == 0

    def test_balances_reserved_tokens_under_skewed_contexts(self):
        # Every 4th request is huge; round-robin with 4 replicas aliases
        # all of them onto replica 0, capacity-aware spreads them.
        requests = tuple(
            Request(
                request_id=index,
                prompt_tokens=3000 if index % 4 == 0 else 50,
                output_tokens=4,
                arrival_s=index * 1e-6,
            )
            for index in range(16)
        )
        trace = RequestTrace(dataset="skew", requests=requests)

        def engine():
            return toy_engine(kv_capacity_bytes=8000)

        round_robin = ReplicaRouter.homogeneous(engine, 4, policy=RoundRobinRouting())
        heavy_per_replica = [0, 0, 0, 0]
        for request, assignment in zip(trace.requests, round_robin.dispatch(trace), strict=True):
            if request.prompt_tokens > 1000:
                heavy_per_replica[assignment] += 1
        assert heavy_per_replica == [4, 0, 0, 0]

        aware = ReplicaRouter.homogeneous(engine, 4, policy=CapacityAwareRouting())
        heavy_per_replica = [0, 0, 0, 0]
        for request, assignment in zip(trace.requests, aware.dispatch(trace), strict=True):
            if request.prompt_tokens > 1000:
                heavy_per_replica[assignment] += 1
        assert heavy_per_replica == [1, 1, 1, 1]


class TestFleetMetrics:
    def test_fleet_counters_sum_replicas(self):
        trace = make_trace(num_requests=8, output=4)
        fleet = ReplicaRouter.homogeneous(toy_engine, 2, policy=RoundRobinRouting()).run(trace)
        assert fleet.num_replicas == 2
        assert fleet.total_output_tokens == 8 * 4
        assert fleet.makespan_s == max(r.makespan_s for r in fleet.replica_results)
        assert fleet.busy_seconds == sum(r.total_seconds for r in fleet.replica_results)
        assert fleet.load_imbalance >= 1.0

    def test_merge_order_is_request_id_sorted(self):
        trace = make_trace(num_requests=7)
        fleet = ReplicaRouter.homogeneous(toy_engine, 3, policy=RoundRobinRouting()).run(trace)
        ids = [record.request_id for record in fleet.request_records]
        assert ids == sorted(ids) == list(range(7))

    def test_from_replicas_with_no_finished_requests(self):
        fleet = FleetResult.from_replicas("round-robin", [], router_dropped=0)
        assert fleet.makespan_s == 0.0
        assert fleet.aggregate_throughput_tokens_per_s == 0.0
        assert fleet.load_imbalance == 1.0


class TestTracePartitioning:
    def test_partition_preserves_ids_arrivals_and_order(self):
        trace = make_trace(num_requests=6, gap_s=0.5)
        parts = partition_trace(trace, [0, 1, 0, None, 1, 0], 2)
        assert [r.request_id for r in parts[0].requests] == [0, 2, 5]
        assert [r.request_id for r in parts[1].requests] == [1, 4]
        assert parts[0].requests[1].arrival_s == pytest.approx(1.0)
        assert all(part.dataset == trace.dataset for part in parts)

    def test_partition_validates_inputs(self):
        trace = make_trace(num_requests=2)
        with pytest.raises(ValueError):
            partition_trace(trace, [0], 2)
        with pytest.raises(ValueError):
            partition_trace(trace, [0, 2], 2)
        with pytest.raises(ValueError):
            partition_trace(trace, [0, 0], 0)

    def test_assign_sessions_positional_and_validated(self):
        trace = make_trace(num_requests=3)
        tagged = assign_sessions(trace, [7, None, 7])
        assert [r.session for r in tagged.requests] == [7, None, 7]
        with pytest.raises(ValueError):
            assign_sessions(trace, [1])

    def test_policy_out_of_range_choice_is_rejected(self):
        class BadPolicy:
            name = "bad"

            def reset(self):
                pass

            def select(self, request, replicas):
                return len(replicas)  # off-by-one on purpose

        router = ReplicaRouter(replicas=[toy_engine()], policy=BadPolicy())
        with pytest.raises(ValueError):
            router.dispatch(make_trace(num_requests=1))

    def test_undersized_replica_routed_around_in_heterogeneous_fleet(self):
        # One replica cannot fit even a single static reservation; the
        # capacity-aware policy must steer everything to the roomier one.
        small = toy_engine(max_context_tokens=128, kv_capacity_bytes=64)
        large = toy_engine(max_context_tokens=4096)
        router = ReplicaRouter(replicas=[small, large], policy=CapacityAwareRouting())
        trace = RequestTrace(
            dataset="toy",
            requests=(Request(request_id=0, prompt_tokens=500, output_tokens=4),),
        )
        assert router.dispatch(trace) == [1]

    def test_replayed_trace_unsorted_arrivals_dispatch_in_time_order(self):
        base = make_trace(num_requests=3)
        shuffled = RequestTrace(
            dataset="toy",
            requests=tuple(
                replace(request, arrival_s=arrival)
                for request, arrival in zip(base.requests, [2.0, 0.0, 1.0], strict=True)
            ),
        )
        router = ReplicaRouter.homogeneous(toy_engine, 3, policy=RoundRobinRouting())
        assignments = router.dispatch(shuffled)
        # Round-robin order follows arrival time, not trace position.
        assert assignments == [2, 0, 1]


class TestAcceptingContract:
    """Dispatching to a downed or draining replica is impossible by design.

    The fleet timeline (:mod:`repro.serving.fleet_events`) clears
    ``ReplicaState.accepting`` on failure or drain; every policy must
    skip those replicas, and ``dispatch`` enforces the contract even
    against a misbehaving policy.
    """

    @staticmethod
    def _states(n=3, down=()):
        states = [ReplicaState(index, toy_engine()) for index in range(n)]
        for index in down:
            states[index].accepting = False
        return states

    def _policies(self):
        return [
            RoundRobinRouting(),
            LeastOutstandingRouting(),
            CapacityAwareRouting(),
            KVBalancedRouting(),
            SessionAffinityRouting(),
        ]

    def test_every_policy_skips_non_accepting_replicas(self):
        request = make_trace(num_requests=1).requests[0]
        for policy in self._policies():
            policy.reset()
            states = self._states(down=[1])
            for _ in range(6):  # cycle round-robin past the downed slot
                choice = policy.select(request, states)
                assert choice is not None and choice != 1, policy.name

    def test_every_policy_returns_none_when_none_accepting(self):
        request = make_trace(num_requests=1).requests[0]
        for policy in self._policies():
            policy.reset()
            states = self._states(down=[0, 1, 2])
            assert policy.select(request, states) is None, policy.name

    def test_dispatch_rejects_non_accepting_choice(self):
        class SabotagePolicy:
            """Clears a replica's accepting flag, then selects it anyway."""

            name = "sabotage"

            def reset(self):
                pass

            def select(self, request, replicas):
                replicas[0].accepting = False
                return 0

        router = ReplicaRouter(
            replicas=[toy_engine(), toy_engine()], policy=SabotagePolicy()
        )
        with pytest.raises(ValueError, match="non-accepting"):
            router.dispatch(make_trace(num_requests=1))

    def test_session_affinity_repins_when_pinned_replica_downed(self):
        policy = SessionAffinityRouting()
        policy.reset()
        states = self._states(n=2)
        request = replace(make_trace(num_requests=1).requests[0], session=7)
        first = policy.select(request, states)
        assert first is not None
        states[first].accepting = False
        second = policy.select(request, states)
        assert second is not None and second != first
        # The session is re-pinned: once the new home is chosen, it sticks.
        assert policy.select(request, states) == second

    def test_in_flight_view_tracks_assignments(self):
        state = ReplicaState(0, toy_engine())
        requests = make_trace(num_requests=3).requests
        for request in requests:
            state.assign(request, 0.0)
        view = state.in_flight()
        assert set(view) == {0, 1, 2}
        assert all(tokens > 0 for tokens in view.values())
        # Draining past the estimated completions empties the view.
        state.drain(1e9)
        assert state.in_flight() == {}
