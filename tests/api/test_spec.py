"""ExperimentSpec construction, validation and serialization round-trips."""

import json
import math
import re

import pytest

from repro.api import (
    AdmissionSpec,
    AllocatorSpec,
    ArrivalSpec,
    ExperimentSpec,
    ModelSpec,
    ParallelismSpec,
    PrefillSpec,
    RouterSpec,
    SystemSpec,
    TierSpec,
    TraceSpec,
)


def full_spec() -> ExperimentSpec:
    """A spec exercising every sub-spec with non-default values."""
    return ExperimentSpec(
        name="round-trip",
        model=ModelSpec(name="LLM-7B-128K", context_window=64 * 1024),
        system=SystemSpec(kind="xpu-pim", num_modules=4, pimphony="tcp+dcs"),
        parallelism=ParallelismSpec(tensor_parallel=2, pipeline_parallel=2),
        allocator=AllocatorSpec(mode="paged"),
        admission=AdmissionSpec(policy="capacity-aware", max_batch_size=8),
        prefill=PrefillSpec(mode="chunked", model="system", chunk_tokens=1024),
        trace=TraceSpec(
            source="synthetic",
            num_requests=32,
            output_tokens=16,
            prompt_tokens=512,
            heavy_every=4,
            heavy_prompt_tokens=4096,
            num_sessions=4,
        ),
        arrival=ArrivalSpec(process="poisson", rate_rps=100.0),
        tiers=(TierSpec(name="priority-5", priority=5, share=0.125),),
        router=RouterSpec(replicas=4, policy="session-affinity", probe_context_tokens=256),
        seed=42,
        step_stride=8,
    )


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = full_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = full_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_default_spec_round_trips(self):
        spec = ExperimentSpec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert spec.router is None

    def test_to_dict_is_json_safe(self):
        json.dumps(full_spec().to_dict())

    def test_missing_sub_specs_take_defaults(self):
        spec = ExperimentSpec.from_dict({"name": "minimal"})
        assert spec.model == ModelSpec()
        assert spec.trace == TraceSpec()
        assert spec.router is None

    def test_spec_hash_stable_and_sensitive(self):
        spec = full_spec()
        assert spec.spec_hash == full_spec().spec_hash
        assert spec.spec_hash != ExperimentSpec().spec_hash
        assert len(spec.spec_hash) == 12

    def test_with_overrides(self):
        spec = ExperimentSpec().with_overrides(
            {"system.pimphony": "baseline", "trace.num_requests": 64}
        )
        assert spec.system.pimphony == "baseline"
        assert spec.trace.num_requests == 64
        # untouched axes keep their defaults
        assert spec.admission == AdmissionSpec()

    def test_with_overrides_creates_router(self):
        spec = ExperimentSpec().with_overrides({"router.replicas": 4})
        assert spec.router is not None
        assert spec.router.replicas == 4


class TestFieldValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ValueError, match="unknown field.*'frobnicate'"):
            ExperimentSpec.from_dict({"frobnicate": 1})

    def test_unknown_sub_spec_field_names_path(self):
        with pytest.raises(ValueError, match="system: unknown field.*'modules'"):
            ExperimentSpec.from_dict({"system": {"modules": 8}})

    @pytest.mark.parametrize(
        ("data", "message"),
        [
            ({"trace": {"num_requests": 0}}, "trace.num_requests"),
            ({"trace": {"num_requests": -3}}, "trace.num_requests"),
            ({"trace": {"arrival": "poisson"}}, "trace.arrival"),
            ({"trace": {"rate_rps": 2.0}}, "trace.rate_rps"),
            ({"system": {"pimphony": "everything"}}, "system.pimphony"),
            ({"system": {"num_modules": 2.5}}, "system.num_modules"),
            ({"allocator": {"mode": "virtual"}}, "allocator.mode"),
            ({"prefill": {"mode": "eager"}}, "prefill.mode"),
            ({"prefill": {"per_token_s": -1.0}}, "prefill.per_token_s"),
            ({"router": {"replicas": 0}}, "router.replicas"),
            ({"seed": -1}, "seed"),
            ({"step_stride": 0}, "step_stride"),
            ({"model": {"name": ""}}, "model.name"),
        ],
    )
    def test_invalid_field_messages_carry_field_path(self, data, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict(data)

    @pytest.mark.parametrize(
        ("path", "value", "replacement"),
        [
            ("trace.arrival", "poisson", 'use arrival: {process: "poisson", rate_rps'),
            ("trace.rate_rps", 40.0, 'use arrival: {process: "poisson", rate_rps'),
            ("trace.priority_every", 4, "use tiers: [{share: 1/N, priority"),
            ("trace.priority_value", 5, "use tiers: [{share: 1/N, priority"),
            ("latency_cache_bucket", 512, 'removed; use engine.mode: "fast"'),
        ],
    )
    def test_retired_keys_name_their_replacement(self, path, value, replacement):
        message = f"{re.escape(path)} is retired: {re.escape(replacement)}"
        with pytest.raises(ValueError, match=message):
            ExperimentSpec().with_overrides({path: value})

    @pytest.mark.parametrize(
        "path",
        [
            "prefill.per_token_s",
            "prefill.per_token_sq_s",
            "prefill.base_s",
            "preemption.swap_bandwidth_gbps",
            "preemption.recompute_per_token_s",
            "trace.turn_gap_s",
            "arrival.rate_rps",
            "router.disagg.link_bandwidth_bytes_per_s",
            "router.disagg.link_latency_s",
            "router.ewma_alpha",
        ],
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_numbers_are_rejected(self, path, value):
        with pytest.raises(ValueError, match=rf"{re.escape(path)} must be a .*finite"):
            ExperimentSpec().with_overrides({path: value})

    def test_parallelism_must_be_set_together(self):
        with pytest.raises(ValueError, match="parallelism.tensor_parallel"):
            ParallelismSpec(tensor_parallel=2)

    def test_parallelism_product_must_match_module_count(self):
        with pytest.raises(ValueError, match="covers 4 modules"):
            ExperimentSpec(
                system=SystemSpec(num_modules=8),
                parallelism=ParallelismSpec(tensor_parallel=2, pipeline_parallel=2),
            )


class TestRegistryKeyValidation:
    def test_unknown_system_kind(self):
        spec = ExperimentSpec(system=SystemSpec(kind="warp-drive"))
        with pytest.raises(ValueError, match="system.kind.*warp-drive.*registered"):
            spec.validate()

    def test_unknown_admission_policy(self):
        spec = ExperimentSpec(admission=AdmissionSpec(policy="lottery"))
        with pytest.raises(ValueError, match="admission.policy.*lottery"):
            spec.validate()

    def test_unknown_routing_policy(self):
        spec = ExperimentSpec(router=RouterSpec(policy="darts"))
        with pytest.raises(ValueError, match="router.policy.*darts"):
            spec.validate()

    def test_unknown_prefill_model(self):
        spec = ExperimentSpec(prefill=PrefillSpec(mode="blocking", model="oracle"))
        with pytest.raises(ValueError, match="prefill.model.*oracle"):
            spec.validate()

    def test_unknown_trace_source(self):
        spec = ExperimentSpec(trace=TraceSpec(source="prod-logs"))
        with pytest.raises(ValueError, match="trace.source.*prod-logs"):
            spec.validate()

    def test_unknown_model_name(self):
        spec = ExperimentSpec(model=ModelSpec(name="LLM-1T-1M"))
        with pytest.raises(ValueError, match="model.name.*LLM-1T-1M"):
            spec.validate()

    def test_unknown_dataset(self):
        spec = ExperimentSpec(trace=TraceSpec(dataset="secret-bench"))
        with pytest.raises(ValueError, match="trace.dataset.*secret-bench"):
            spec.validate()

    def test_validate_returns_self_for_chaining(self):
        spec = ExperimentSpec()
        assert spec.validate() is spec
