"""Engine-level tests for preemption policies and the lifecycle contract."""

from dataclasses import dataclass, replace

import pytest

from repro.serving.admission import FCFSAdmission
from repro.serving.engine import ServingEngine, serve
from repro.serving.interfaces import StepResult
from repro.serving.preemption import (
    EvictLargest,
    EvictLRU,
    EvictYoungest,
    NoPreemption,
    PreemptionCandidate,
    PreemptionConfig,
    PreemptionCostModel,
)
from repro.workloads.traces import Request, RequestTrace

CHUNK = 1024 * 1024  # engine allocators use the paper's 1MB chunks


@dataclass
class TinyPagedSystem:
    """Constant-latency paged-memory system with a tiny KV capacity.

    Two tokens per 1MB chunk, eight chunks total by default: four requests
    growing to 16 tokens each (8 chunks) oversubscribe the cache 4x.
    """

    kv_capacity_bytes: int = 8 * CHUNK
    kv_bytes_per_token: int = CHUNK // 2
    max_context_tokens: int = 4096
    step_seconds: float = 0.01

    @property
    def dynamic_memory(self) -> bool:
        return True

    @property
    def total_pim_channels(self) -> int:
        return 0

    def decode_step(self, context_lengths) -> StepResult:
        if not context_lengths:
            return StepResult(seconds=0.0, pim_utilization=0.0)
        return StepResult(seconds=self.step_seconds, pim_utilization=0.0)


def pressure_trace(num_requests=4, prompt=2, output=14):
    return RequestTrace(
        dataset="pressure",
        requests=tuple(
            Request(request_id=index, prompt_tokens=prompt, output_tokens=output)
            for index in range(num_requests)
        ),
    )


def evict_lru(mode="recompute", **kwargs):
    return PreemptionConfig(
        policy=EvictLRU(), cost=PreemptionCostModel(mode=mode, **kwargs)
    )


class TestPolicySelection:
    CANDIDATES = (
        PreemptionCandidate(request_id=0, context_tokens=10, admitted_s=0.0, last_decode_s=3.0),
        PreemptionCandidate(request_id=1, context_tokens=99, admitted_s=1.0, last_decode_s=1.0),
        PreemptionCandidate(request_id=2, context_tokens=50, admitted_s=2.0, last_decode_s=2.0),
    )

    def test_none_never_selects(self):
        assert NoPreemption().select(self.CANDIDATES) is None
        assert NoPreemption().select(()) is None

    def test_lru_selects_least_recent_decoder(self):
        assert EvictLRU().select(self.CANDIDATES) == 1

    def test_largest_selects_most_context(self):
        assert EvictLargest().select(self.CANDIDATES) == 1

    def test_youngest_selects_latest_admitted(self):
        assert EvictYoungest().select(self.CANDIDATES) == 2

    def test_empty_candidates_refuse(self):
        for policy in (EvictLRU(), EvictLargest(), EvictYoungest()):
            assert policy.select(()) is None

    def test_lru_tie_breaks_by_admission_then_id(self):
        tied = (
            PreemptionCandidate(request_id=5, context_tokens=1, admitted_s=2.0, last_decode_s=1.0),
            PreemptionCandidate(request_id=3, context_tokens=1, admitted_s=1.0, last_decode_s=1.0),
        )
        assert EvictLRU().select(tied) == 3


class TestEnginePreemption:
    def test_evict_lru_completes_all_with_higher_concurrency_and_utilization(self):
        trace = pressure_trace()
        baseline = serve(TinyPagedSystem(), trace)
        preempting = serve(TinyPagedSystem(), trace, preemption=evict_lru())

        # The up-front-commit baseline serialises the four requests.
        assert baseline.peak_batch_size == 1
        assert baseline.preemptions == 0
        # The lifecycle contract admits everyone and preempts under
        # pressure -- every request still completes with every token.
        assert preempting.requests_served == 4
        assert preempting.total_output_tokens == baseline.total_output_tokens
        assert preempting.peak_batch_size > baseline.peak_batch_size
        assert (
            preempting.average_capacity_utilization
            > baseline.average_capacity_utilization
        )
        assert preempting.preemptions > 0
        assert preempting.preemption_policy == "evict-lru"
        assert preempting.requeue_delay_mean_s > 0.0

    def test_per_request_stall_and_preemption_counts_recorded(self):
        result = serve(TinyPagedSystem(), pressure_trace(), preemption=evict_lru())
        preempted_records = [r for r in result.request_records if r.preemptions]
        assert preempted_records, "capacity pressure must preempt someone"
        assert all(record.stall_s > 0.0 for record in preempted_records)
        assert sum(r.preemptions for r in result.request_records) == result.preemptions
        # Recompute mode re-prefills each victim's saved context.
        assert result.recompute_tokens == sum(
            r.recompute_tokens for r in result.request_records
        )
        assert result.recompute_tokens > 0

    def test_swap_cost_charges_the_clock(self):
        trace = pressure_trace()
        free = serve(TinyPagedSystem(), trace, preemption=evict_lru())
        paid = serve(
            TinyPagedSystem(),
            trace,
            preemption=evict_lru(mode="swap", swap_bandwidth_bytes_per_s=1e9),
        )
        assert free.preemption_overhead_s == 0.0  # recompute w/o prefill model
        assert paid.preemption_overhead_s > 0.0
        assert paid.recompute_tokens == 0  # swap preserves the KV cache
        assert paid.makespan_s > free.makespan_s
        assert paid.total_output_tokens == free.total_output_tokens

    def test_none_policy_config_matches_no_config_exactly(self):
        trace = pressure_trace()
        bare = serve(TinyPagedSystem(), trace)
        none = serve(
            TinyPagedSystem(),
            trace,
            preemption=PreemptionConfig(policy=NoPreemption()),
        )
        assert none.preemptions == 0
        for metric in (
            "total_output_tokens",
            "total_seconds",
            "steps",
            "peak_batch_size",
            "average_batch_size",
            "average_capacity_utilization",
            "requests_served",
            "makespan_s",
            "latency",
        ):
            assert getattr(none, metric) == getattr(bare, metric), metric

    def test_preempted_request_keeps_exact_token_budget(self):
        trace = pressure_trace(num_requests=3, prompt=4, output=12)
        result = serve(TinyPagedSystem(), trace, preemption=evict_lru())
        records = {record.request_id: record for record in result.request_records}
        for request in trace.requests:
            assert records[request.request_id].generated == request.output_tokens

    def test_impossible_request_still_dropped_or_raised(self):
        # A request whose final context exceeds *total* capacity can never
        # be saved by preemption: the lifecycle engine must keep the legacy
        # drop (skip-over) / raise (head-of-line) semantics.
        from repro.memory.static_alloc import AllocationError
        from repro.serving.admission import CapacityAwareAdmission

        base = pressure_trace(num_requests=2)
        oversized = Request(request_id=99, prompt_tokens=2, output_tokens=100)
        trace = RequestTrace(dataset=base.dataset, requests=base.requests + (oversized,))
        result = serve(
            TinyPagedSystem(),
            trace,
            admission=CapacityAwareAdmission(),
            preemption=evict_lru(),
        )
        assert result.requests_dropped == 1
        assert result.metadata["dropped_request_ids"] == [99]
        assert result.requests_served == 2
        with pytest.raises(AllocationError):
            serve(
                TinyPagedSystem(),
                trace,
                admission=FCFSAdmission(),
                preemption=evict_lru(),
            )

    def test_max_batch_size_still_caps_concurrency(self):
        result = serve(
            TinyPagedSystem(),
            pressure_trace(num_requests=6),
            max_batch_size=2,
            preemption=evict_lru(),
        )
        assert result.peak_batch_size <= 2
        assert result.requests_served == 6

    def test_policies_disagree_on_victims_but_all_complete(self):
        trace = pressure_trace(num_requests=5, prompt=2, output=12)
        results = {}
        for policy in (EvictLRU(), EvictLargest(), EvictYoungest()):
            result = serve(
                TinyPagedSystem(),
                trace,
                preemption=PreemptionConfig(policy=policy),
            )
            assert result.requests_served == 5
            assert result.total_output_tokens == trace.total_output_tokens
            results[policy.name] = result.preemptions
        assert all(count > 0 for count in results.values())

    def test_lifecycle_admission_property(self):
        system = TinyPagedSystem()
        assert not ServingEngine(system=system).lifecycle_admission
        assert not ServingEngine(
            system=system, preemption=PreemptionConfig(policy=NoPreemption())
        ).lifecycle_admission
        assert ServingEngine(system=system, preemption=evict_lru()).lifecycle_admission


class TestPoissonArrivalsUnderPressure:
    def test_open_loop_trace_with_preemption_terminates_and_serves_all(self):
        requests = tuple(
            Request(request_id=index, prompt_tokens=2, output_tokens=10,
                    arrival_s=0.02 * index)
            for index in range(8)
        )
        trace = RequestTrace(dataset="open-loop", requests=requests)
        result = serve(TinyPagedSystem(), trace, preemption=evict_lru())
        assert result.requests_served == 8
        assert result.total_output_tokens == 80


class TestCostModelValidation:
    def test_invalid_modes_and_ranges_rejected(self):
        with pytest.raises(ValueError):
            PreemptionCostModel(mode="teleport")
        with pytest.raises(ValueError):
            PreemptionCostModel(swap_bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            PreemptionCostModel(recompute_per_token_s=-1.0)

    def test_recompute_uses_prefill_model_when_available(self):
        from repro.memory.lifecycle import PreemptedState
        from repro.serving.prefill import LinearPrefillModel

        cost = PreemptionCostModel(mode="recompute", recompute_per_token_s=0.5)
        state = PreemptedState(request_id=0, tokens=10, kv_bytes=100)
        assert cost.restore_seconds(state) == pytest.approx(5.0)
        model = LinearPrefillModel(per_token_s=0.1)
        assert cost.restore_seconds(state, model) == pytest.approx(1.0)
        assert cost.restore_recompute_tokens(state) == 10
        swap = PreemptionCostModel(mode="swap", swap_bandwidth_bytes_per_s=50.0)
        assert swap.evict_seconds(state) == pytest.approx(2.0)
        assert swap.restore_recompute_tokens(state) == 0


def test_replace_keeps_dataclass_semantics():
    # EngineResult gained preemption fields; dataclasses.replace must work
    # for downstream tooling that tweaks results.
    result = serve(TinyPagedSystem(), pressure_trace(), preemption=evict_lru())
    clone = replace(result, preemptions=0)
    assert clone.preemptions == 0
    assert clone.total_output_tokens == result.total_output_tokens
