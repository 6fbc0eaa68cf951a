"""Workload specs, the output check, sim_digest and the layer metrics at tiny sizes."""

from __future__ import annotations

import json
from typing import Any

import pytest

from perfbench.child import ROOT, check_outputs, import_repro, serve, sim_digest
from perfbench.layers import LAYER_METRICS, LayerTrace, layer_metrics, unit_of
from perfbench.run import SPEED_POWER
from perfbench.workloads import WORKLOADS

#: Request counts small enough for a unit test, large enough to batch.
TINY = {"many_short_xpu": 300, "long_context_xpu_pim": 4, "pim_fleet_day": 120}
OUT = ROOT / ".perfbench" / "test-report.json"


@pytest.fixture(scope="module", autouse=True)
def _repro() -> None:
    import_repro()
    OUT.parent.mkdir(exist_ok=True)


def tiny_spec(name: str, seed: int = 7) -> dict[str, Any]:
    return WORKLOADS[name].spec_for(seed, TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_full_size_spec_validates(name: str) -> None:
    from repro.api.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(WORKLOADS[name].spec_for(3))
    assert spec.validate().seed == 3
    assert spec.trace.num_requests == WORKLOADS[name].num_requests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_the_output_check_with_a_stable_digest(name: str) -> None:
    first = serve(tiny_spec(name), OUT)
    assert check_outputs(first.report, first.trace) == []
    assert json.loads(OUT.read_text()) == json.loads(json.dumps(first.data))
    second = serve(tiny_spec(name), OUT)
    assert sim_digest(second.data) == sim_digest(first.data)
    other_seed = serve(tiny_spec(name, seed=8), OUT)
    assert sim_digest(other_seed.data) != sim_digest(first.data)


def test_digest_ignores_provenance_only() -> None:
    data = {"spec": {"a": 1}, "spec_hash": "x", "engine_mode": "fast", "metrics": {"b": 2}}
    moved = {**data, "spec": {"a": 2}, "spec_hash": "y", "engine_mode": "scalar"}
    assert sim_digest(moved) == sim_digest(data)
    assert sim_digest({**data, "metrics": {"b": 3}}) != sim_digest(data)


def test_output_check_catches_lost_tokens() -> None:
    served = serve(tiny_spec("many_short_xpu"), OUT)

    class Tampered:
        def __getattr__(self, name: str) -> Any:
            if name == "total_output_tokens":
                return served.report.total_output_tokens - 1
            return getattr(served.report, name)

    errors = check_outputs(Tampered(), served.trace)
    assert len(errors) == 1 and "output tokens" in errors[0]


def traced_layers(name: str) -> tuple[dict[str, float], str]:
    trace = LayerTrace()
    trace.install()
    try:
        served = serve(tiny_spec(name), OUT)
    finally:
        trace.restore()
    return layer_metrics(trace, 0.1, served.run_s, served.report), sim_digest(served.data)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_same_digest(name: str) -> None:
    layers, digest = traced_layers(name)
    assert set(layers) == set(LAYER_METRICS) - {"trace.overhead_s"}
    assert digest == sim_digest(serve(tiny_spec(name), OUT).data)


def test_layers_stressed_and_bypassed_per_workload() -> None:
    short, _ = traced_layers("many_short_xpu")
    assert short["kernels.estimate_cycles.calls"] == 0
    assert short["kernels.share_of_run"] == 0.0
    assert short["engine.span_eval_share"] > 0
    long_context, _ = traced_layers("long_context_xpu_pim")
    assert long_context["kernels.estimate_cycles.calls"] > 0
    assert long_context["system.decode_span.calls"] == 0
    assert long_context["prefill.cumulative_seconds.calls"] > 0
    fleet, _ = traced_layers("pim_fleet_day")
    assert fleet["fleet.segments"] > 0
    assert fleet["router.select.calls"] > 0
    assert fleet["preemption.victims"] == fleet["alloc.grow.failed"] > 0
    for layers in (short, long_context):
        for metric in ("fleet.segments", "router.select.calls", "preemption.select.calls"):
            assert layers[metric] == 0


def test_benchmark_json_matches_the_code() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    for metric in declared["per_layer"]:
        assert metric["name"] in LAYER_METRICS
        assert metric["unit"] == unit_of(metric["name"])
    end_to_end = [metric["name"] for metric in declared["end_to_end"]]
    assert "setup_s" in end_to_end
    assert sorted(SPEED_POWER) == sorted(end_to_end)
