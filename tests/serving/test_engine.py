"""Edge-case and lifecycle tests for the event-driven serving engine."""

import pytest

from repro.baselines.cent import cent_system_config
from repro.core.orchestrator import PIMphonyConfig
from repro.memory.static_alloc import AllocationError
from repro.serving.admission import CapacityAwareAdmission, FCFSAdmission, PriorityAdmission
from repro.serving.engine import ServingEngine, serve
from repro.workloads.datasets import get_dataset, synthetic_dataset
from repro.workloads.traces import generate_trace, poisson_arrivals, replay_arrivals


def make_trace(model, requests=8, output=16, dataset="qmsum", seed=0):
    return generate_trace(
        get_dataset(dataset),
        num_requests=requests,
        seed=seed,
        context_window=model.context_window,
        output_tokens=output,
    )


class TestEngineEdgeCases:
    def test_oversized_request_raises_allocation_error(self, llm_7b):
        huge = synthetic_dataset(
            "huge", mean=5e6, std=1.0, minimum=4_000_000, maximum=6_000_000, output_tokens=4
        )
        trace = generate_trace(huge, num_requests=1, seed=0)
        system = cent_system_config(
            llm_7b.with_context_window(8 * 1024 * 1024),
            num_modules=1,
            pimphony=PIMphonyConfig.full(),
        )
        with pytest.raises(AllocationError):
            serve(system, trace)

    def test_skip_policy_drops_unservable_requests_instead_of_raising(self, llm_7b):
        # One request exceeds total KV capacity; the others are normal.
        # A skip-over policy must finish the run and report the drop,
        # instead of discarding every served request's results at drain.
        from dataclasses import replace

        from repro.workloads.traces import RequestTrace

        base = make_trace(llm_7b, requests=5, output=8)
        system = cent_system_config(
            llm_7b.with_context_window(8 * 1024 * 1024),
            pimphony=PIMphonyConfig.full(),
        )
        oversized = replace(
            base.requests[0], request_id=99, prompt_tokens=5_000_000, output_tokens=4
        )
        trace = RequestTrace(dataset=base.dataset, requests=base.requests + (oversized,))
        result = serve(
            system, trace, admission=CapacityAwareAdmission(), step_stride=2
        )
        assert result.requests_dropped == 1
        assert result.metadata["dropped_request_ids"] == [99]
        assert result.requests_served == 5
        assert result.total_output_tokens == sum(r.output_tokens for r in base.requests)
        # Head-of-line FCFS keeps the legacy error behaviour.
        with pytest.raises(AllocationError):
            serve(system, trace, admission=FCFSAdmission(), step_stride=2)

    def test_max_batch_size_caps_concurrency(self, llm_7b):
        trace = make_trace(llm_7b, requests=8, output=8)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        result = serve(system, trace, max_batch_size=2, step_stride=4)
        assert result.peak_batch_size <= 2
        assert result.total_output_tokens == trace.total_output_tokens

    def test_step_stride_matches_stride_one_within_tolerance(self, llm_7b):
        trace = make_trace(llm_7b, requests=4, output=32)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        fine = serve(system, trace, step_stride=1)
        coarse = serve(system, trace, step_stride=16)
        assert fine.total_output_tokens == coarse.total_output_tokens
        assert coarse.throughput_tokens_per_s == pytest.approx(
            fine.throughput_tokens_per_s, rel=0.05
        )

    def test_output_longer_than_window_is_clamped_not_crashed(self, llm_7b):
        # output_tokens >= context window: the context must stop growing at
        # the window (the allocator's reservation), not run past it and die
        # mid-decode.
        from repro.workloads.traces import Request, RequestTrace

        window = llm_7b.context_window
        trace = RequestTrace(
            dataset="degenerate",
            requests=(
                Request(request_id=0, prompt_tokens=100, output_tokens=window),
                Request(request_id=1, prompt_tokens=2048, output_tokens=64),
            ),
        )
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        result = serve(system, trace, step_stride=8)
        assert result.requests_served == 2
        records = {record.request_id: record for record in result.request_records}
        # Request 0 decodes window - 1 tokens (prompt clamped to 1).
        assert records[0].generated == window - 1
        assert records[1].generated == 64

    def test_invalid_parameters_rejected(self, llm_7b):
        system = cent_system_config(llm_7b)
        with pytest.raises(ValueError):
            ServingEngine(system=system, step_stride=0)
        with pytest.raises(ValueError):
            ServingEngine(system=system, max_batch_size=0)


class TestLifecycleMetrics:
    def test_ttft_tpot_and_percentiles_reported(self, llm_7b):
        trace = make_trace(llm_7b, requests=8, output=16)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        result = serve(system, trace, step_stride=4)
        stats = result.latency
        assert stats.ttft_mean_s > 0
        assert stats.tpot_mean_s > 0
        assert 0 < stats.latency_p50_s <= stats.latency_p95_s <= stats.latency_p99_s
        # TTFT for the first admitted batch is one decode step; every
        # end-to-end latency is bounded by the run's makespan.
        assert stats.latency_p99_s <= result.makespan_s + 1e-12
        assert result.ttft_mean_s == stats.ttft_mean_s

    def test_single_token_requests_have_zero_tpot(self, llm_7b):
        trace = make_trace(llm_7b, requests=3, output=1)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        result = serve(system, trace)
        assert result.latency.tpot_mean_s == 0.0
        assert result.latency.ttft_mean_s > 0

    def test_queue_delay_zero_when_uncontended(self, llm_7b):
        trace = make_trace(llm_7b, requests=2, output=4)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        result = serve(system, trace)
        assert result.latency.queue_delay_mean_s == pytest.approx(0.0, abs=1e-12)


class TestArrivalProcesses:
    def test_poisson_arrivals_introduce_idle_time(self, llm_7b):
        trace = make_trace(llm_7b, requests=6, output=4)
        # Arrivals far slower than the service rate: the system drains
        # between requests, so the makespan exceeds busy time.
        slow = poisson_arrivals(trace, rate_rps=0.01, seed=1)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        result = serve(system, slow, step_stride=2)
        assert result.idle_seconds > 0
        assert result.makespan_s == pytest.approx(
            result.total_seconds + result.idle_seconds, rel=1e-9
        )
        assert result.makespan_s >= slow.last_arrival_s

    def test_zero_arrivals_have_no_idle_time(self, llm_7b):
        trace = make_trace(llm_7b, requests=6, output=4)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        result = serve(system, trace, step_stride=2)
        assert result.idle_seconds == 0.0
        assert result.makespan_s == pytest.approx(result.total_seconds)

    def test_replay_arrivals_respected(self, llm_7b):
        trace = make_trace(llm_7b, requests=3, output=4)
        replayed = replay_arrivals(trace, [0.0, 100.0, 200.0])
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        result = serve(system, replayed, step_stride=2)
        assert result.makespan_s > 200.0
        assert result.requests_served == 3

    def test_arrival_order_overrides_trace_order(self, llm_7b):
        trace = make_trace(llm_7b, requests=3, output=4)
        # Request 2 arrives first; under FCFS it must be admitted first.
        replayed = replay_arrivals(trace, [50.0, 60.0, 0.0], monotonic=False)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        engine = ServingEngine(system=system, admission=FCFSAdmission(), step_stride=2)
        result = engine.run(replayed)
        records = {record.request_id: record for record in result.request_records}
        assert result.requests_served == 3
        assert records[2].admitted_s == pytest.approx(0.0)
        assert records[2].admitted_s < records[0].admitted_s < records[1].admitted_s
        for record in records.values():
            assert record.finished
            assert record.admitted_s >= record.arrival_s


class TestAdmissionPoliciesInEngine:
    def test_capacity_aware_beats_fcfs_batch_under_blocking(self, llm_7b):
        # A head-of-line blocker: one near-window request followed by many
        # small ones.  FCFS stalls behind it; capacity-aware packs around it.
        window = llm_7b.context_window
        mixed = synthetic_dataset(
            "mixed", mean=window * 0.6, std=window * 0.4,
            minimum=1024, maximum=window - 64, output_tokens=8,
        )
        trace = generate_trace(mixed, num_requests=24, seed=3, context_window=window)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.tcp_dcs())
        fcfs = serve(system, trace, step_stride=4)
        packed = serve(
            system, trace, admission=CapacityAwareAdmission(), step_stride=4
        )
        assert packed.average_batch_size >= fcfs.average_batch_size
        assert packed.total_output_tokens == fcfs.total_output_tokens
        assert packed.admission_policy == "capacity-aware"

    def test_priority_admission_serves_urgent_first(self, llm_7b):
        from dataclasses import replace

        trace = make_trace(llm_7b, requests=6, output=8)
        prioritised = trace.requests[:5] + (replace(trace.requests[5], priority=10),)
        from repro.workloads.traces import RequestTrace

        trace = RequestTrace(dataset=trace.dataset, requests=prioritised)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        engine = ServingEngine(
            system=system, admission=PriorityAdmission(), max_batch_size=2, step_stride=2
        )
        result = engine.run(trace)
        assert result.admission_policy == "priority"
        assert result.requests_served == 6
        # With a batch cap of 2, the priority-10 request must be admitted in
        # the first round despite being last in arrival order.
        assert result.peak_batch_size <= 2
