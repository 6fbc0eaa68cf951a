"""Fast-engine parity: event-point batch stepping must not move any number.

:class:`~repro.serving.fast_engine.FastServingEngine` runs the
:class:`~repro.serving.engine.ServingEngine` loop with spans of up to 4096
decode evaluations instead of one, so every value of its
:class:`~repro.api.report.RunReport` must equal the scalar mode's exactly --
on every shipped example spec (lifecycle preemption and prefix-cache runs
included) and on a seeded sweep of randomized configurations crossing
admission x preemption (priority-aware policies and the starvation guard
included) x prefill x prefix-cache x allocator x stride x router x SLO tiers.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, run
from repro.api.spec import apply_override

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_DIR = REPO_ROOT / "examples" / "specs"
SPEC_PATHS = sorted(SPEC_DIR.glob("*.json"))

#: Keys that legitimately differ between the two engine modes.
MODE_KEYS = ("spec", "spec_hash", "engine_mode")


def run_report_dict(spec_data: dict, mode: str) -> dict:
    data = json.loads(json.dumps(spec_data))
    apply_override(data, "engine.mode", mode)
    report = run(ExperimentSpec.from_dict(data)).to_dict()
    for key in MODE_KEYS:
        report.pop(key, None)
    return report


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
def test_example_spec_parity(spec_path):
    spec_data = json.loads(spec_path.read_text())
    scalar = run_report_dict(spec_data, "scalar")
    fast = run_report_dict(spec_data, "fast")
    assert_equal(scalar, fast)


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
    if rng.random() < 0.6:
        trace["arrival"] = "poisson"
        trace["rate_rps"] = rng.choice([20.0, 200.0, 2000.0])
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
        trace["priority_every"] = 2

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
        data["latency_cache_bucket"] = 512
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
