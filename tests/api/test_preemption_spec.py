"""PreemptionSpec plumbing: spec -> build -> run -> report -> CLI JSON."""

import json

import pytest

from repro.api.build import build, run
from repro.api.cli import main
from repro.api.spec import ExperimentSpec, ModelSpec, PreemptionSpec, SystemSpec, TraceSpec
from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import get_model
from repro.serving.admission import FCFSAdmission
from repro.serving.engine import ServingEngine
from repro.serving.preemption import EvictLRU, NoPreemption

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


def pressure_spec(**preemption) -> ExperimentSpec:
    """A deliberately capacity-constrained single-module scenario.

    One PIM module leaves ~3GB of KV capacity (3072 chunks); twelve
    synthetic requests growing to 768 tokens each need 4608 chunks, so the
    up-front-commit contract can only run eight at once.
    """
    return ExperimentSpec(
        name="preemption-pressure",
        model=ModelSpec(name="LLM-7B-32K"),
        system=SystemSpec(kind="pim-only", num_modules=1, pimphony="full"),
        preemption=PreemptionSpec(**preemption),
        trace=TraceSpec(
            source="synthetic", num_requests=12, prompt_tokens=256, output_tokens=512
        ),
        seed=5,
        step_stride=4,
    )


class TestSpecPlumbing:
    def test_round_trips_through_json(self):
        spec = pressure_spec(policy="evict-lru", mode="swap", swap_bandwidth_gbps=32.0)
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert spec.preemption.policy == "evict-lru"

    def test_validation_rejects_unknown_policy_and_bad_mode(self):
        with pytest.raises(ValueError, match="preemption.policy"):
            pressure_spec(policy="evict-psychic").validate()
        with pytest.raises(ValueError, match="preemption.mode"):
            PreemptionSpec(mode="teleport")
        with pytest.raises(ValueError, match="swap_bandwidth_gbps"):
            PreemptionSpec(swap_bandwidth_gbps=0.0)

    def test_registered_policies_resolve(self):
        for policy in ("none", "evict-lru", "evict-largest", "evict-youngest"):
            pressure_spec(policy=policy).validate()

    def test_build_attaches_preemption_config(self):
        built = build(pressure_spec(policy="evict-lru"))
        assert built.engine.preemption is not None
        assert isinstance(built.engine.preemption.policy, EvictLRU)
        assert built.engine.lifecycle_admission

    def test_build_none_policy_attaches_nothing(self):
        built = build(pressure_spec())
        assert built.engine.preemption is None
        assert not built.engine.lifecycle_admission

    def test_fleet_engines_get_independent_policy_instances(self):
        spec = pressure_spec(policy="evict-lru").with_overrides(
            {"router": {"replicas": 2, "policy": "round-robin"}}
        )
        built = build(spec)
        policies = [engine.preemption.policy for engine in built.engines]
        assert policies[0] is not policies[1]

    def test_ewma_alpha_threads_to_router(self):
        spec = pressure_spec().with_overrides(
            {"router": {"replicas": 2, "ewma_alpha": 0.7}}
        )
        assert build(spec).router.ewma_alpha == 0.7
        with pytest.raises(ValueError, match="ewma_alpha"):
            pressure_spec().with_overrides({"router": {"replicas": 2, "ewma_alpha": 1.7}})


class TestNonePolicyParity:
    def test_none_policy_reproduces_pre_lifecycle_metrics_exactly(self):
        # The acceptance pin: an explicit preemption.policy="none" spec must
        # reproduce the pre-PR engine arithmetic to the last float.
        spec = pressure_spec(policy="none")
        report = run(spec)
        assert report.preemption_policy == "none"
        assert report.preemptions == 0

        built = build(spec)
        model = get_model("LLM-7B-32K")
        from repro.baselines.cent import cent_system_config

        system = cent_system_config(model, num_modules=1, pimphony=PIMphonyConfig.full())
        direct = ServingEngine(
            system=system, admission=FCFSAdmission(), step_stride=4
        ).run(built.trace)
        for metric in ENGINE_METRICS:
            assert getattr(report.engine_result, metric) == getattr(direct, metric), metric

    def test_default_spec_equals_explicit_none(self):
        default = run(pressure_spec())
        explicit = run(pressure_spec(policy="none"))
        for metric in ENGINE_METRICS:
            assert getattr(explicit.engine_result, metric) == getattr(
                default.engine_result, metric
            ), metric


class TestEvictLRUUnderPressure:
    def test_higher_peak_admissions_and_utilization_than_upfront_commit(self):
        baseline = run(pressure_spec(policy="none"))
        preempting = run(pressure_spec(policy="evict-lru"))

        # Everyone completes under both contracts...
        assert baseline.requests_served == 12
        assert preempting.requests_served == 12
        assert preempting.total_output_tokens == baseline.total_output_tokens
        # ...but the lifecycle contract packs strictly more concurrent
        # work into the same cache and keeps it fuller.
        assert preempting.peak_batch_size > baseline.peak_batch_size
        assert (
            preempting.average_capacity_utilization
            > baseline.average_capacity_utilization
        )
        assert preempting.preemptions > 0
        assert preempting.requeue_delay_mean_s > 0.0

    def test_counters_surface_in_report_dict(self):
        payload = run(pressure_spec(policy="evict-lru")).to_dict()
        assert payload["preemption_policy"] == "evict-lru"
        assert payload["metrics"]["preemptions"] > 0
        assert payload["metrics"]["recompute_tokens"] > 0
        assert payload["metrics"]["requeue_delay_mean_s"] > 0.0
        assert payload["replicas"][0]["preemptions"] == payload["metrics"]["preemptions"]
        json.dumps(payload)  # stays JSON-safe


class TestCLI:
    def test_set_preemption_policy_flows_to_report(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(pressure_spec().to_json())
        exit_code = main(
            [
                "run",
                str(spec_path),
                "--set",
                "preemption.policy=evict-lru",
                "--format",
                "json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["preemption_policy"] == "evict-lru"
        assert payload["spec"]["preemption"]["policy"] == "evict-lru"
        assert payload["metrics"]["preemptions"] > 0

    def test_validate_rejects_unknown_policy(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(pressure_spec().to_json())
        exit_code = main(
            ["validate", str(spec_path), "--set", "preemption.policy=evict-psychic"]
        )
        assert exit_code == 2
        assert "preemption.policy" in capsys.readouterr().err

    def test_list_includes_preemption_section(self, capsys):
        assert main(["list", "preemption"]) == 0
        out = capsys.readouterr().out
        assert "evict-lru" in out and "none" in out


def test_no_preemption_config_reuse_is_safe():
    # NoPreemption carries no state; the same instance may be shared.
    policy = NoPreemption()
    assert policy.select(()) is None
