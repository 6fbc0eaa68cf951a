"""Unit tests for the fleet timeline: failures, recovery, autoscaling."""

from dataclasses import dataclass

import pytest

from repro.serving import (
    SCALE_DOWN,
    SCALE_UP,
    DynamicFleetRouter,
    FleetEvent,
    LeastOutstandingRouting,
    ReactiveAutoscaler,
    ReplicaRouter,
    RoundRobinRouting,
    ServingEngine,
    StepResult,
)
from repro.workloads.traces import Request, RequestTrace


@dataclass
class ToySystem:
    """Constant-latency decode system (static allocation; see test_router)."""

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


def toy_engine() -> ServingEngine:
    return ServingEngine(system=ToySystem())


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


class TestConstruction:
    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError, match="initial_replicas"):
            DynamicFleetRouter(toy_engine, initial_replicas=0)

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet event kind"):
            DynamicFleetRouter(
                toy_engine,
                initial_replicas=2,
                events=[FleetEvent(at_s=1.0, kind="replica_sideways", replica=0)],
            )

    def test_event_replica_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            DynamicFleetRouter(
                toy_engine,
                initial_replicas=2,
                events=[FleetEvent(at_s=1.0, kind="replica_down", replica=2)],
            )


class TestStaticEquivalence:
    def test_no_events_matches_static_router(self):
        # With no events and no autoscaler the timeline must reproduce the
        # static ReplicaRouter bit for bit: same dispatch order, same
        # per-replica sub-traces, same merged latency stats.
        trace = make_trace(num_requests=16, output=6, gap_s=0.05)
        static = ReplicaRouter(
            replicas=[toy_engine(), toy_engine()], policy=RoundRobinRouting()
        ).run(trace, system_name="toy")
        dynamic = DynamicFleetRouter(toy_engine, initial_replicas=2).run(
            trace, system_name="toy"
        )
        assert dynamic.latency == static.latency
        assert [r.request_id for r in dynamic.request_records] == [
            r.request_id for r in static.request_records
        ]
        assert dynamic.timeline.failures == 0
        assert dynamic.timeline.restarts == 0
        assert dynamic.timeline.kv_lost_tokens == 0
        assert dynamic.router_dropped == 0
        assert all(r.restarts == 0 for r in dynamic.request_records)
        assert [segment.reason for segment in dynamic.timeline.segments] == ["run-end"] * 2
        # Both run-end segments bill from t=0 to the common fleet end.
        ends = {segment.end_s for segment in dynamic.timeline.segments}
        assert len(ends) == 1
        assert dynamic.timeline.replica_seconds == pytest.approx(2 * ends.pop())

    def test_empty_trace(self):
        result = DynamicFleetRouter(toy_engine, initial_replicas=2).run(
            RequestTrace(dataset="toy", requests=())
        )
        assert result.request_records == ()
        assert result.timeline.failures == 0
        assert result.timeline.decisions == ()
        assert result.timeline.replica_seconds == 0.0
        assert result.timeline.peak_replicas == 2


def served_slots(result):
    """``{request_id: slot}`` of the engine that served each record."""
    return {
        record.request_id: segment.slot
        for segment, replica in zip(result.timeline.segments, result.replica_results, strict=True)
        for record in replica.request_records
    }


class TestDispatchReadsTheSweep:
    def _assert_dispatch_names_serving_slots(self, make_router, trace):
        placement = make_router().dispatch(trace)
        result = make_router().run(trace)
        slots = served_slots(result)
        assert placement == [slots.get(request.request_id) for request in trace.requests]
        # Dispatching first must not disturb the run that follows.
        router = make_router()
        router.dispatch(trace)
        assert router.run(trace) == result
        return placement

    def test_static_fleet(self):
        trace = make_trace(num_requests=12, output=20, gap_s=0.02)
        placement = self._assert_dispatch_names_serving_slots(
            lambda: ReplicaRouter(
                replicas=[toy_engine(), toy_engine(), toy_engine()],
                policy=LeastOutstandingRouting(),
            ),
            trace,
        )
        assert set(placement) == {0, 1, 2}

    def test_failure_victims_report_their_surviving_slot(self):
        # Same setup as the victim test below: 0/2/4 fail over to slot 1.
        trace = make_trace(num_requests=6, prompt=64, output=100)
        placement = self._assert_dispatch_names_serving_slots(
            lambda: DynamicFleetRouter(
                toy_engine,
                initial_replicas=2,
                events=[FleetEvent(at_s=0.5, kind="replica_down", replica=0)],
            ),
            trace,
        )
        assert placement == [1] * 6


class TestFailure:
    def test_victims_redispatched_with_original_arrival(self):
        # 6 requests at t=0, est. service 1s each; round-robin puts
        # 0/2/4 on replica 0.  Failing it at t=0.5 must re-dispatch all
        # three to replica 1, charge their reserved KV, and stitch the
        # records back to the t=0 arrival so latency spans the stall.
        trace = make_trace(num_requests=6, prompt=64, output=100)
        router = DynamicFleetRouter(
            toy_engine,
            initial_replicas=2,
            events=[FleetEvent(at_s=0.5, kind="replica_down", replica=0)],
        )
        result = router.run(trace)
        assert result.timeline.failures == 1
        assert result.timeline.restarts == 3
        # Static allocation reserves the full final context per request.
        assert result.timeline.kv_lost_tokens == 3 * (64 + 100)
        records = {r.request_id: r for r in result.request_records}
        assert len(records) == 6
        for victim_id in (0, 2, 4):
            assert records[victim_id].restarts == 1
            assert records[victim_id].arrival_s == pytest.approx(0.0)
        for survivor_id in (1, 3, 5):
            assert records[survivor_id].restarts == 0
        # Victims restart cold at 0.5 on the surviving replica, so their
        # end-to-end latency must exceed any same-size survivor's.
        slowest_survivor = max(records[i].latency_s for i in (1, 3, 5))
        for victim_id in (0, 2, 4):
            assert records[victim_id].latency_s > slowest_survivor
        # The failed segment bills exactly until the event and serves
        # nothing (all of its work was re-dispatched).
        failed = [s for s in result.timeline.segments if s.reason == "failure"]
        assert len(failed) == 1
        assert failed[0].slot == 0
        assert failed[0].end_s == pytest.approx(0.5)
        assert failed[0].requests_served == 0

    def test_recovery_opens_fresh_segment(self):
        trace = make_trace(num_requests=12, output=30, gap_s=0.1)
        router = DynamicFleetRouter(
            toy_engine,
            initial_replicas=2,
            events=[
                FleetEvent(at_s=0.35, kind="replica_down", replica=0),
                FleetEvent(at_s=0.6, kind="replica_up", replica=0),
            ],
        )
        result = router.run(trace)
        assert result.timeline.failures == 1
        slot0 = [s for s in result.timeline.segments if s.slot == 0]
        assert [s.reason for s in slot0] == ["failure", "run-end"]
        assert slot0[1].start_s == pytest.approx(0.6)
        assert slot0[1].requests_served > 0  # arrivals after 0.6 land here
        assert len(result.request_records) == 12
        assert result.router_dropped == 0

    def test_no_accepting_replica_drops(self):
        # Single replica downed at t=0.05: the in-flight victim and every
        # later arrival have nowhere to go.
        trace = make_trace(num_requests=4, output=100, gap_s=0.1)
        router = DynamicFleetRouter(
            toy_engine,
            initial_replicas=1,
            events=[FleetEvent(at_s=0.05, kind="replica_down", replica=0)],
        )
        result = router.run(trace)
        assert result.router_dropped == 4
        assert result.request_records == ()
        assert result.timeline.failures == 1


class TestAutoscaling:
    def test_scale_up_under_load(self):
        # One replica, heavy sustained load: the queue-depth signal must
        # grow the fleet to max_replicas and the new slots must serve
        # traffic once their cold start elapses.
        trace = make_trace(num_requests=60, output=50, gap_s=0.02)
        scaler = ReactiveAutoscaler(
            signal="queue-depth",
            scale_up_threshold=2.0,
            scale_down_threshold=0.5,
            min_replicas=1,
            max_replicas=3,
            interval_s=0.05,
            cooldown_s=0.0,
            cold_start_s=0.1,
        )
        result = DynamicFleetRouter(
            toy_engine, initial_replicas=1, autoscaler=scaler
        ).run(trace)
        ups = [d for d in result.timeline.decisions if d.action == SCALE_UP]
        assert len(ups) == 2  # 1 -> 3 replicas, then capped at max
        assert result.timeline.peak_replicas == 3
        assert all(d.signal_value > 2.0 for d in ups)
        scaled_slots = {s.slot for s in result.timeline.segments if s.slot >= 1}
        assert scaled_slots == {1, 2}
        assert sum(s.requests_served for s in result.timeline.segments if s.slot >= 1) > 0
        assert len(result.request_records) == 60

    def test_scale_down_drains_idle_replicas(self):
        # Three replicas, trickle load: the controller must drain down to
        # min_replicas, and each drained segment must be billed as such.
        trace = make_trace(num_requests=20, output=5, gap_s=0.1)
        scaler = ReactiveAutoscaler(
            signal="queue-depth",
            scale_up_threshold=10.0,
            scale_down_threshold=0.5,
            min_replicas=1,
            max_replicas=4,
            interval_s=0.1,
            cooldown_s=0.0,
            cold_start_s=0.1,
        )
        result = DynamicFleetRouter(
            toy_engine, initial_replicas=3, autoscaler=scaler
        ).run(trace)
        downs = [d for d in result.timeline.decisions if d.action == SCALE_DOWN]
        assert len(downs) == 2  # 3 -> 1, floored at min_replicas
        assert all(d.action == SCALE_DOWN for d in result.timeline.decisions)
        drained = [s for s in result.timeline.segments if s.reason == "drain"]
        assert len(drained) == 2
        assert len(result.request_records) == 20
        assert result.router_dropped == 0

    def test_cold_start_delays_accepting(self):
        # Cold start longer than the arrival span: the scaled-up replica
        # is billed but never serves a request.
        trace = make_trace(num_requests=20, output=20, gap_s=0.01)
        scaler = ReactiveAutoscaler(
            signal="queue-depth",
            scale_up_threshold=0.1,
            scale_down_threshold=0.05,
            min_replicas=1,
            max_replicas=2,
            interval_s=0.05,
            cooldown_s=0.0,
            cold_start_s=0.5,
        )
        result = DynamicFleetRouter(
            toy_engine, initial_replicas=1, autoscaler=scaler
        ).run(trace)
        assert result.timeline.peak_replicas == 2
        cold = [s for s in result.timeline.segments if s.slot == 1]
        assert len(cold) == 1
        assert cold[0].requests_served == 0
        assert cold[0].end_s > cold[0].start_s  # provisioned time is billed

    def test_ttft_ewma_signal_scales_up(self):
        trace = make_trace(num_requests=60, output=50, gap_s=0.02)
        scaler = ReactiveAutoscaler(
            signal="ttft-ewma",
            scale_up_threshold=0.12,
            scale_down_threshold=0.05,
            min_replicas=1,
            max_replicas=3,
            interval_s=0.05,
            cooldown_s=0.0,
            cold_start_s=0.1,
            ewma_alpha=0.5,
        )
        result = DynamicFleetRouter(
            toy_engine, initial_replicas=1, autoscaler=scaler
        ).run(trace)
        ups = [d for d in result.timeline.decisions if d.action == SCALE_UP]
        assert ups, "queue pressure must drive the TTFT estimate past 0.12s"
        assert all(d.signal_value > 0.12 for d in ups)


class TestReactiveAutoscaler:
    def test_validation(self):
        with pytest.raises(ValueError, match="signal"):
            ReactiveAutoscaler(signal="vibes")
        with pytest.raises(ValueError, match="scale_up_threshold"):
            ReactiveAutoscaler(scale_up_threshold=0.0)
        with pytest.raises(ValueError, match="scale_down_threshold"):
            ReactiveAutoscaler(scale_down_threshold=-1.0)
        with pytest.raises(ValueError, match="below scale_up_threshold"):
            ReactiveAutoscaler(scale_up_threshold=2.0, scale_down_threshold=2.0)
        with pytest.raises(ValueError, match="min_replicas"):
            ReactiveAutoscaler(min_replicas=0)
        with pytest.raises(ValueError, match="min_replicas"):
            ReactiveAutoscaler(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError, match="interval_s"):
            ReactiveAutoscaler(interval_s=0.0)
        with pytest.raises(ValueError, match="cooldown_s"):
            ReactiveAutoscaler(cooldown_s=-1.0)
        with pytest.raises(ValueError, match="cold_start_s"):
            ReactiveAutoscaler(cold_start_s=-1.0)
        with pytest.raises(ValueError, match="ewma_alpha"):
            ReactiveAutoscaler(ewma_alpha=1.5)

    def test_scale_up_bounded_by_max(self):
        scaler = ReactiveAutoscaler(
            scale_up_threshold=2.0, scale_down_threshold=0.5, max_replicas=2, cooldown_s=0.0
        )
        assert scaler.decide(0.0, 1, 1, [5]) == SCALE_UP
        assert scaler.decide(5.0, 2, 2, [5, 5]) is None  # at max
        assert scaler.decisions[0].replicas_before == 1
        assert scaler.decisions[0].replicas_after == 2
        assert scaler.decisions[0].signal_value == pytest.approx(5.0)

    def test_scale_down_floored_at_min(self):
        scaler = ReactiveAutoscaler(
            scale_up_threshold=4.0, scale_down_threshold=1.0, min_replicas=2, cooldown_s=0.0
        )
        assert scaler.decide(0.0, 3, 3, [0, 0, 0]) == SCALE_DOWN
        assert scaler.decide(5.0, 2, 2, [0, 0]) is None  # at min

    def test_cooldown_gates_decisions(self):
        scaler = ReactiveAutoscaler(
            scale_up_threshold=2.0, scale_down_threshold=0.5, cooldown_s=10.0
        )
        assert scaler.decide(0.0, 1, 1, [5]) == SCALE_UP
        assert scaler.decide(5.0, 2, 2, [5, 5]) is None  # cooling down
        assert scaler.decide(10.0, 2, 2, [5, 5]) == SCALE_UP

    def test_queue_depth_signal_is_mean(self):
        scaler = ReactiveAutoscaler()
        assert scaler.current_signal([1, 2, 3]) == pytest.approx(2.0)
        assert scaler.current_signal([]) == 0.0

    def test_ttft_ewma_folding(self):
        scaler = ReactiveAutoscaler(signal="ttft-ewma", ewma_alpha=0.5)
        scaler.observe_ttft(1.0)
        assert scaler.current_signal([]) == pytest.approx(1.0)
        scaler.observe_ttft(3.0)
        assert scaler.current_signal([]) == pytest.approx(2.0)
        scaler.reset()
        assert scaler.current_signal([]) == 0.0
        assert scaler.decisions == []
