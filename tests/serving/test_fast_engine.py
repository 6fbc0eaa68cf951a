"""Fast-engine parity: event-point batch stepping must not move any number.

:class:`~repro.serving.fast_engine.FastServingEngine` runs the
:class:`~repro.serving.engine.ServingEngine` loop with spans of up to 4096
decode evaluations instead of one, so every value of its
:class:`~repro.api.report.RunReport` must equal the scalar mode's exactly --
on every shipped example spec (lifecycle preemption and prefix-cache runs
included) and on a seeded sweep of randomized configurations crossing
admission x preemption (priority-aware policies and the starvation guard
included) x prefill x prefix-cache x allocator x stride x router x SLO tiers.

Each shipped spec's scalar report is also pinned to its golden values in
``golden_reports.json`` (the canonical form of perfbench's ``sim_digest``:
the report JSON without the provenance keys), so a change that moves any
simulated number fails here and names the value that moved.  The reports
come from NumPy random streams and float arithmetic, which NumPy does not
promise to keep across versions, so the golden check runs only under the
Python minor version and NumPy version the file was recorded with (its
``recorded_with`` entry); the fast == scalar check runs everywhere.  A
change that moves a number on purpose re-records the file; see
CONTRIBUTING.md.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api.build import build, run
from repro.api.report import RunReport
from repro.api.spec import ExperimentSpec, apply_override
from repro.baselines.gpu import GPUSystemModel
from repro.memory.static_alloc import StaticAllocator
from repro.system.pim_only import PIMOnlySystem
from repro.system.xpu import XPUOnlySystem
from repro.system.xpu_pim import XPUPIMSystem

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_DIR = REPO_ROOT / "examples" / "specs"
SPEC_PATHS = sorted(SPEC_DIR.glob("*.json"))

#: Keys that legitimately differ between the two engine modes.
MODE_KEYS = ("spec", "spec_hash", "engine_mode")

#: Each shipped spec's scalar report (``MODE_KEYS`` dropped) and the environment it came from.
GOLDEN = json.loads(Path(__file__).with_name("golden_reports.json").read_text())


def golden_environment() -> dict[str, str]:
    """The Python minor version and NumPy version, as ``recorded_with`` stores them."""
    return {"python": f"{sys.version_info.major}.{sys.version_info.minor}", "numpy": np.__version__}


#: Every system class with a ``decode_step``.
DECODE_SYSTEMS = (XPUOnlySystem, GPUSystemModel, PIMOnlySystem, XPUPIMSystem)


def run_report(spec_data: dict, mode: str) -> RunReport:
    data = json.loads(json.dumps(spec_data))
    apply_override(data, "engine.mode", mode)
    return run(ExperimentSpec.from_dict(data))


def report_dict(report: RunReport) -> dict:
    data = report.to_dict()
    for key in MODE_KEYS:
        data.pop(key, None)
    return data


def run_report_dict(spec_data: dict, mode: str) -> dict:
    return report_dict(run_report(spec_data, mode))


def count_decode_steps(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Count ``decode_step`` calls on every system class into a one-element tally."""
    tally = [0]
    for cls in DECODE_SYSTEMS:

        def counted(self, context_lengths, _original=cls.decode_step):
            tally[0] += 1
            return _original(self, context_lengths)

        monkeypatch.setattr(cls, "decode_step", counted)
    return tally


def assert_equal(scalar, fast, path: str = "report") -> None:
    """Recursive exact equality; NaN equals NaN."""
    if isinstance(scalar, dict):
        assert isinstance(fast, dict) and scalar.keys() == fast.keys(), path
        for key in scalar:
            assert_equal(scalar[key], fast[key], f"{path}.{key}")
    elif isinstance(scalar, (list, tuple)):
        assert len(scalar) == len(fast), path
        for index, (left, right) in enumerate(zip(scalar, fast, strict=True)):
            assert_equal(left, right, f"{path}[{index}]")
    elif isinstance(scalar, float):
        assert fast == scalar or (math.isnan(scalar) and math.isnan(fast)), path
    else:
        assert scalar == fast, path


@pytest.mark.parametrize("spec_path", SPEC_PATHS, ids=lambda p: p.stem)
def test_example_spec_parity(spec_path, monkeypatch):
    spec_data = json.loads(spec_path.read_text())
    decode_steps = count_decode_steps(monkeypatch)
    scalar_report = run_report(spec_data, "scalar")
    scalar_steps = decode_steps[0]
    fast_report = run_report(spec_data, "fast")
    fast_steps = decode_steps[0] - scalar_steps
    # Fast mode prices every evaluation scalar mode prices: one by one with
    # ``decode_step``, or in a span with ``decode_span``.
    span_evaluations = sum(result.span_evaluations for result in fast_report.replica_results)
    assert scalar_steps == fast_steps + span_evaluations
    assert all(result.span_evaluations == 0 for result in scalar_report.replica_results)
    scalar = report_dict(scalar_report)
    fast = report_dict(fast_report)
    assert_equal(scalar, fast)
    if GOLDEN["recorded_with"] == golden_environment():
        golden = GOLDEN["reports"][spec_path.stem]
        canonical = json.loads(json.dumps(scalar))
        assert_equal(golden, canonical, "golden")
        # Also catches an int that became a float of the same value.
        assert json.dumps(canonical, sort_keys=True) == json.dumps(golden, sort_keys=True)


def test_golden_reports_cover_the_shipped_specs():
    assert sorted(GOLDEN["reports"]) == [path.stem for path in SPEC_PATHS]
    assert sorted(GOLDEN["recorded_with"]) == ["numpy", "python"]


def test_example_specs_cover_lifecycle_and_prefix_cache():
    """The parity sweep above must include preemption and prefix-cache runs."""
    names = {path.stem for path in SPEC_PATHS}
    assert "preemption_evict_lru" in names
    assert "multi_turn_prefix_cache" in names


def test_fast_mode_deterministic():
    spec_data = json.loads((SPEC_DIR / "xpu_only_qmsum.json").read_text())
    first = run_report_dict(spec_data, "fast")
    second = run_report_dict(spec_data, "fast")
    assert first == second


def test_engine_mode_recorded_in_report():
    spec_data = json.loads((SPEC_DIR / "pim_only_qmsum.json").read_text())
    data = json.loads(json.dumps(spec_data))
    apply_override(data, "engine.mode", "fast")
    report = run(ExperimentSpec.from_dict(data))
    assert report.engine_mode == "fast"
    assert report.to_dict()["engine_mode"] == "fast"


def test_long_xpu_pim_spans_match_scalar():
    """Long closed-form xpu-pim spans keep full RunReport parity.

    The long-context benchmark's shape at small size: 20k-120k-token
    prompts, chunked prefill, stride 4 and 512 output tokens, with arrivals
    close enough for batches to overlap.  After the last arrival nothing
    can cut a span short, so the long spans priced there all run.
    """
    spec_data = {
        "name": "long-context-xpu-pim-spans",
        "model": {"name": "LLM-7B-128K"},
        "system": {"kind": "xpu-pim", "pimphony": "full"},
        "trace": {
            "source": "dataset",
            "dataset": "multifieldqa",
            "num_requests": 6,
            "output_tokens": 512,
        },
        "arrival": {"process": "replay", "times": [2.0 * index for index in range(6)]},
        "prefill": {"mode": "chunked", "model": "system", "chunk_tokens": 16384},
        "seed": 1,
        "step_stride": 4,
    }
    scalar = run_report_dict(spec_data, "scalar")

    data = json.loads(json.dumps(spec_data))
    apply_override(data, "engine.mode", "fast")
    built = build(ExperimentSpec.from_dict(data))
    span = built.system.decode_span
    assert span is not None
    priced: list[int] = []

    def counting_span(contexts, stride, count):
        priced.append(count)
        return span(contexts, stride, count)

    built.system.decode_span = counting_span
    fast = built.run().to_dict()
    for key in MODE_KEYS:
        fast.pop(key, None)
    assert max(priced) >= 64
    assert_equal(scalar, fast)


def test_full_batch_spans_run_through_arrivals(monkeypatch):
    """At ``max_batch_size`` an arrival cannot join, so it does not cut a span.

    Four requests fill the batch at t=0 and twenty more arrive during its
    first evaluations.  Admission waits for a completion, which always ends
    a span, so every span runs as many evaluations as it priced, and the
    report still equals scalar mode's.
    """
    spec_data = {
        "name": "full-batch-spans",
        "model": {"name": "LLM-7B-32K", "context_window": 2048},
        "system": {"kind": "xpu-only"},
        "allocator": {"mode": "static"},
        "admission": {"policy": "fcfs", "max_batch_size": 4},
        "trace": {
            "source": "synthetic",
            "num_requests": 24,
            "prompt_tokens": 256,
            "output_tokens": 128,
        },
        "arrival": {
            "process": "replay",
            "times": [0.0] * 4 + [0.0005 * index for index in range(1, 21)],
        },
        "seed": 0,
        "step_stride": 1,
    }
    scalar = run_report_dict(spec_data, "scalar")

    data = json.loads(json.dumps(spec_data))
    apply_override(data, "engine.mode", "fast")
    built = build(ExperimentSpec.from_dict(data))
    span = built.system.decode_span
    priced: list[int] = []
    used: list[int] = []

    def counting_span(contexts, stride, count):
        priced.append(count)
        return span(contexts, stride, count)

    grow = StaticAllocator.grow

    def counting_grow(self, request_id, count=1):
        # The span body grows each request by stride (1) x evaluations used.
        if len(used) < len(priced):
            used.append(count)
        return grow(self, request_id, count)

    built.system.decode_span = counting_span
    monkeypatch.setattr(StaticAllocator, "grow", counting_grow)
    fast = built.run().to_dict()
    for key in MODE_KEYS:
        fast.pop(key, None)
    assert max(priced) >= 64
    assert used == priced
    assert_equal(scalar, fast)


#: Order-dependent PIM systems: HFP packing or a multi-stage pipeline, so
#: neither has a closed-form ``decode_span``.
NO_SPAN_VARIANTS = {
    "pim-only-hfp": (
        "pim_only_qmsum.json",
        {"system.pimphony": "baseline"},
    ),
    # TCP prices spans in closed form on one stage only.
    "pim-only-tcp-static-pp2": (
        "pim_only_qmsum.json",
        {
            "system.pimphony": "tcp",
            "parallelism.tensor_parallel": 4,
            "parallelism.pipeline_parallel": 2,
        },
    ),
    "pim-only-tcp-dcs-pp2": (
        "pim_only_qmsum.json",
        {
            "system.pimphony": "tcp+dcs",
            "parallelism.tensor_parallel": 4,
            "parallelism.pipeline_parallel": 2,
        },
    ),
    "pim-only-tp4-pp2": (
        "pim_only_qmsum.json",
        {"parallelism.tensor_parallel": 4, "parallelism.pipeline_parallel": 2},
    ),
    "xpu-pim-hfp": (
        "xpu_pim_long_context.json",
        {"system.pimphony": "baseline"},
    ),
    "xpu-pim-tp2-pp2": (
        "xpu_pim_long_context.json",
        {"parallelism.tensor_parallel": 2, "parallelism.pipeline_parallel": 2},
    ),
    "pim-only-hfp-paged-evict": (
        "pim_only_qmsum.json",
        {
            "system.pimphony": "baseline",
            "allocator.mode": "paged",
            "preemption.policy": "evict-lru",
            "admission.max_batch_size": 4,
        },
    ),
}


@pytest.mark.parametrize("variant", sorted(NO_SPAN_VARIANTS))
def test_systems_without_decode_span_match_scalar(variant):
    """Systems without ``decode_span`` keep full RunReport parity in fast mode."""
    spec_name, overrides = NO_SPAN_VARIANTS[variant]
    spec_data = json.loads((SPEC_DIR / spec_name).read_text())
    for path, value in overrides.items():
        apply_override(spec_data, path, value)
    assert build(ExperimentSpec.from_dict(spec_data)).system.decode_span is None
    assert_equal(run_report_dict(spec_data, "scalar"), run_report_dict(spec_data, "fast"))


# ---------------------------------------------------------------------------
# Randomized configuration sweep
# ---------------------------------------------------------------------------


def _random_spec_dict(rng: random.Random) -> dict:
    """One small randomized configuration crossing the engine's feature axes."""
    source = rng.choice(["synthetic", "dataset", "multi-turn"])
    trace: dict = {"source": source, "num_requests": rng.choice([6, 10, 16])}
    if source == "synthetic":
        trace["prompt_tokens"] = rng.choice([128, 256, 1024])
        trace["output_tokens"] = rng.choice([8, 24, 48])
        if rng.random() < 0.5:
            trace["heavy_every"] = 3
            trace["heavy_prompt_tokens"] = 4096
    elif source == "dataset":
        trace["dataset"] = "qmsum"
        trace["output_tokens"] = rng.choice([8, 24])
    else:
        trace["num_sessions"] = 3
        trace["turns_per_session"] = 3
        trace["followup_tokens"] = 32
        trace["output_tokens"] = rng.choice([8, 16])
        if rng.random() < 0.5:
            trace["turn_gap_s"] = 0.25
    arrival: dict | None = None
    if rng.random() < 0.6:
        arrival = {"process": "poisson", "rate_rps": rng.choice([20.0, 200.0, 2000.0])}
    if source != "multi-turn" and rng.random() < 0.3:
        trace["num_sessions"] = 2
    admission = rng.choice(["fcfs", "capacity-aware", "priority"])
    tiers: list[dict] | None = None
    if rng.random() < 0.5:
        premium: dict = {"name": "premium", "priority": 5, "share": rng.choice([0.25, 0.5])}
        if rng.random() < 0.5:
            premium["ttft_deadline_s"] = 0.5
            premium["tpot_deadline_s"] = rng.choice([0.01, 0.25])
        tiers = [premium]
        if source == "multi-turn" and rng.random() < 0.5:
            tiers.append({"name": "vip", "priority": 9, "sessions": [0]})
        if rng.random() < 0.7:
            tiers.append({"name": "best-effort"})
    elif admission == "priority":
        tiers = [{"name": "priority-1", "priority": 1, "share": 0.5}]

    data: dict = {
        "name": "fast-parity-random",
        "model": {"name": "LLM-7B-32K"},
        "system": {"kind": rng.choice(["pim-only", "xpu-only", "xpu-pim"])},
        "allocator": {"mode": rng.choice(["auto", "static", "paged"])},
        "admission": {
            "policy": admission,
            "max_batch_size": rng.choice([None, 4, 8]),
        },
        "trace": trace,
        "seed": rng.randrange(1000),
        "step_stride": rng.choice([1, 4, 16]),
    }
    if arrival is not None:
        data["arrival"] = arrival
    if tiers is not None:
        data["tiers"] = tiers
    if rng.random() < 0.5:
        data["preemption"] = {
            "policy": rng.choice(
                [
                    "evict-lru",
                    "evict-largest",
                    "evict-youngest",
                    "evict-priority-lru",
                    "evict-priority-largest",
                    "evict-priority-youngest",
                ]
            ),
            "mode": rng.choice(["swap", "recompute"]),
        }
        if rng.random() < 0.5:
            data["preemption"]["starvation_limit"] = rng.choice([1, 3])
    prefill = rng.choice(["none", "blocking", "chunked"])
    if prefill != "none":
        data["prefill"] = {"mode": prefill, "chunk_tokens": rng.choice([256, 512])}
    if rng.random() < 0.4:
        data["prefix_cache"] = {"enabled": True}
        trace.setdefault("num_sessions", 2)
    if rng.random() < 0.3:
        data["router"] = {
            "replicas": 2,
            "policy": rng.choice(["round-robin", "capacity-aware", "session-affinity"]),
        }
    return data


@pytest.mark.parametrize("case_seed", range(20))
def test_randomized_config_parity(case_seed):
    """Full RunReport parity on a seeded random spec; errors must match too."""
    rng = random.Random(20260 + case_seed)
    spec_data = _random_spec_dict(rng)
    try:
        scalar = run_report_dict(spec_data, "scalar")
        scalar_error = None
    except Exception as error:  # noqa: BLE001 - comparing failure surfaces
        scalar, scalar_error = None, error
    try:
        fast = run_report_dict(spec_data, "fast")
        fast_error = None
    except Exception as error:  # noqa: BLE001
        fast, fast_error = None, error

    if scalar_error is not None or fast_error is not None:
        assert type(scalar_error) is type(fast_error), (scalar_error, fast_error)
        assert str(scalar_error) == str(fast_error)
    else:
        assert_equal(scalar, fast)
