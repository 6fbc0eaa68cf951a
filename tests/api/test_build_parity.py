"""run(spec) parity with hand-constructed engines/routers, and seed threading."""

import pytest

from repro.api import (
    AdmissionSpec,
    ArrivalSpec,
    ExperimentSpec,
    ModelSpec,
    RouterSpec,
    SystemSpec,
    TraceSpec,
    build,
    run,
)
from repro.api.build import build_trace, derived_seeds
from repro.baselines.cent import cent_system_config
from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import get_model
from repro.serving import (
    CapacityAwareRouting,
    FCFSAdmission,
    PrefillConfig,
    ReplicaRouter,
    ServingEngine,
    prefill_model_for,
)
from repro.workloads.datasets import get_dataset
from repro.workloads.traces import generate_trace, poisson_arrivals, random_sessions

ENGINE_METRICS = (
    "total_output_tokens",
    "total_seconds",
    "steps",
    "average_batch_size",
    "peak_batch_size",
    "average_pim_utilization",
    "average_capacity_utilization",
    "requests_served",
    "requests_dropped",
    "makespan_s",
    "idle_seconds",
    "latency",
)


def engine_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="engine-parity",
        model=ModelSpec(name="LLM-7B-32K"),
        system=SystemSpec(kind="pim-only", pimphony="full"),
        trace=TraceSpec(source="dataset", dataset="qmsum", num_requests=12, output_tokens=24),
        seed=3,
        step_stride=8,
    )


def fleet_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="fleet-parity",
        model=ModelSpec(name="LLM-7B-32K"),
        system=SystemSpec(kind="pim-only", num_modules=2, pimphony="full"),
        admission=AdmissionSpec(max_batch_size=16),
        trace=TraceSpec(
            source="synthetic",
            num_requests=48,
            prompt_tokens=256,
            heavy_every=4,
            heavy_prompt_tokens=8192,
            output_tokens=16,
        ),
        arrival=ArrivalSpec(process="poisson", rate_rps=1000.0),
        router=RouterSpec(replicas=4, policy="capacity-aware"),
        seed=7,
        step_stride=8,
    )


class TestEngineParity:
    def test_metrics_match_direct_construction_exactly(self):
        spec = engine_spec()
        report = run(spec)

        model = get_model("LLM-7B-32K")
        trace_seed, _, _ = derived_seeds(spec.seed)
        trace = generate_trace(
            get_dataset("qmsum"),
            num_requests=12,
            seed=trace_seed,
            context_window=model.context_window,
            output_tokens=24,
        )
        system = cent_system_config(model, pimphony=PIMphonyConfig.full())
        direct = ServingEngine(
            system=system, admission=FCFSAdmission(), step_stride=8
        ).run(trace)

        assert report.num_replicas == 1
        assert report.routing_policy is None
        for metric in ENGINE_METRICS:
            assert getattr(report.engine_result, metric) == getattr(direct, metric), metric
        assert report.total_output_tokens == direct.total_output_tokens
        assert report.busy_seconds == direct.total_seconds
        assert report.makespan_s == direct.makespan_s
        assert report.latency == direct.latency
        assert report.throughput_tokens_per_s == direct.throughput_tokens_per_s

    def test_prefill_spec_matches_direct_prefill_config(self):
        spec = engine_spec().with_overrides(
            {"prefill.mode": "chunked", "prefill.chunk_tokens": 512}
        )
        report = run(spec)

        built = build(spec)
        system = cent_system_config(get_model("LLM-7B-32K"), pimphony=PIMphonyConfig.full())
        direct = ServingEngine(
            system=system,
            admission=FCFSAdmission(),
            step_stride=8,
            prefill=PrefillConfig(prefill_model_for(system), chunk_tokens=512),
        ).run(built.trace)

        assert report.prefill_mode == "chunked"
        assert report.engine_result.latency == direct.latency
        assert report.engine_result.total_seconds == direct.total_seconds


class TestFleetParity:
    def test_metrics_match_direct_router_exactly(self):
        spec = fleet_spec()
        report = run(spec)

        built = build(spec)  # reuse the spec's trace; construct the fleet by hand
        system = cent_system_config(
            get_model("LLM-7B-32K"), num_modules=2, pimphony=PIMphonyConfig.full()
        )
        router = ReplicaRouter.homogeneous(
            lambda: ServingEngine(
                system=system,
                admission=FCFSAdmission(),
                max_batch_size=16,
                step_stride=8,
            ),
            4,
            policy=CapacityAwareRouting(),
        )
        direct = router.run(built.trace)

        assert report.num_replicas == 4
        assert report.routing_policy == "capacity-aware"
        assert report.total_output_tokens == direct.total_output_tokens
        assert report.requests_served == direct.requests_served
        assert report.requests_dropped == direct.requests_dropped
        assert report.busy_seconds == direct.busy_seconds
        assert report.makespan_s == direct.makespan_s
        assert report.latency == direct.latency
        assert report.load_imbalance == direct.load_imbalance
        assert (
            report.aggregate_throughput_tokens_per_s
            == direct.aggregate_throughput_tokens_per_s
        )
        for ours, theirs in zip(report.replica_results, direct.replica_results, strict=True):
            assert ours.total_seconds == theirs.total_seconds
            assert ours.latency == theirs.latency


class TestSeedThreading:
    def test_identical_specs_reproduce_identical_traces(self):
        spec = fleet_spec().with_overrides({"trace.num_sessions": 8})
        first = build_trace(spec)
        second = build_trace(spec)
        assert first == second  # prompts, arrivals and sessions all equal

    def test_different_seed_changes_arrivals_and_sessions(self):
        spec = fleet_spec().with_overrides({"trace.num_sessions": 8})
        other = spec.with_overrides({"seed": 8})
        assert build_trace(spec) != build_trace(other)

    def test_sessions_derive_from_spec_seed(self):
        spec = fleet_spec().with_overrides({"trace.num_sessions": 8})
        _, _, session_seed = derived_seeds(spec.seed)
        base = fleet_spec().with_overrides({"trace.num_sessions": 0})
        expected = random_sessions(build_trace(base), 8, seed=session_seed)
        assert build_trace(spec) == expected

    def test_arrivals_derive_from_spec_seed(self):
        spec = engine_spec().with_overrides(
            {"arrival.process": "poisson", "arrival.rate_rps": 50.0}
        )
        trace_seed, arrival_seed, _ = derived_seeds(spec.seed)
        model = get_model("LLM-7B-32K")
        base = generate_trace(
            get_dataset("qmsum"),
            num_requests=12,
            seed=trace_seed,
            context_window=model.context_window,
            output_tokens=24,
        )
        assert build_trace(spec) == poisson_arrivals(base, 50.0, seed=arrival_seed)


class TestRunReportShape:
    def test_typed_metadata_fields(self):
        spec = fleet_spec()
        report = run(spec)
        assert report.spec == spec
        assert report.spec_hash == spec.spec_hash
        assert report.seed == spec.seed
        assert report.num_replicas == 4
        assert report.system_kind == "pim-only"
        assert report.admission_policy == "fcfs"
        assert report.prefill_mode == "none"
        assert report.num_requests == 48

    def test_to_dict_is_json_safe_and_typed(self):
        import json

        report = run(engine_spec())
        payload = report.to_dict()
        json.dumps(payload)
        assert payload["spec_hash"] == report.spec_hash
        assert payload["metrics"]["requests_served"] == report.requests_served
        assert len(payload["replicas"]) == 1

    def test_summary_table_renders_for_engine_and_fleet(self):
        engine_table = run(engine_spec()).summary_table()
        assert "fleet" in engine_table
        fleet_table = run(fleet_spec()).summary_table()
        assert "capacity-aware" in fleet_table

    def test_engine_result_raises_for_fleet(self):
        report = run(fleet_spec())
        with pytest.raises(ValueError, match="4 replicas"):
            report.engine_result

    def test_allocator_override_flips_dynamic_memory(self):
        static = build(engine_spec().with_overrides({"allocator.mode": "static"}))
        paged = build(engine_spec().with_overrides({"allocator.mode": "paged"}))
        assert static.system.dynamic_memory is False
        assert paged.system.dynamic_memory is True
