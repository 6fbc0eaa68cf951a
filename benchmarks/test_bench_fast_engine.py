"""Fast-engine throughput benchmarks and the BENCH_engine_throughput.json trend.

Not a paper figure: perf-trend tracking for the vectorized batch-stepping
core.  The smoke test runs the fixed scenarios below in both engine modes,
checks parity, and writes ``BENCH_engine_throughput.json`` (requests per
wall-clock second of simulation, spec-hashed for comparability) which CI
uploads as an artifact and gates against the committed baseline in
``benchmarks/baselines/`` via ``benchmarks/check_bench_throughput.py``.

The slow-marked tests demonstrate the headline claims: >=20x on a
100k-request Poisson trace and a completed 10^6-request run.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, run

from _helpers import emit, run_once

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_engine_throughput.json"

#: Fixed scenarios tracked release-over-release.  Decode-dominated on
#: purpose: the fast engine's win scales with output length (scalar work is
#: O(N * K) in generated tokens, fast work is O(event points)).
SCENARIOS = {
    "decode_heavy_poisson_2k": {
        "num_requests": 2_000,
        "output_tokens": 512,
    },
}


def _scenario_spec(num_requests: int, output_tokens: int, mode: str) -> ExperimentSpec:
    return ExperimentSpec.from_dict(
        {
            "name": "bench-engine-throughput",
            "model": {"name": "LLM-7B-32K", "context_window": 2048},
            "system": {"kind": "xpu-only"},
            "allocator": {"mode": "static"},
            "engine": {"mode": mode},
            "admission": {"policy": "fcfs", "max_batch_size": 32},
            "trace": {
                "source": "synthetic",
                "num_requests": num_requests,
                "prompt_tokens": 256,
                "output_tokens": output_tokens,
            },
            "arrival": {"process": "poisson", "rate_rps": 800.0},
            "seed": 0,
            "step_stride": 1,
        }
    )


def _measure(spec: ExperimentSpec):
    start = time.perf_counter()
    report = run(spec)
    return report, time.perf_counter() - start


def _comparable(report) -> dict:
    payload = report.to_dict()
    for key in ("spec", "spec_hash", "engine_mode"):
        payload.pop(key, None)
    return payload


def test_bench_engine_throughput_trend(benchmark):
    def evaluate():
        results = {}
        for name, scenario in SCENARIOS.items():
            scalar_spec = _scenario_spec(mode="scalar", **scenario)
            fast_spec = _scenario_spec(mode="fast", **scenario)
            scalar_report, scalar_wall = _measure(scalar_spec)
            fast_report, fast_wall = _measure(fast_spec)
            assert _comparable(scalar_report) == _comparable(fast_report), name
            results[name] = {
                "spec_hash": scalar_spec.spec_hash,
                "num_requests": scenario["num_requests"],
                "scalar_requests_per_s": scenario["num_requests"] / scalar_wall,
                "fast_requests_per_s": scenario["num_requests"] / fast_wall,
                "speedup": scalar_wall / max(fast_wall, 1e-9),
            }
        return results

    results = run_once(benchmark, evaluate)
    BENCH_JSON.write_text(json.dumps({"scenarios": results}, indent=2) + "\n")
    lines = [
        f"{name}: scalar {row['scalar_requests_per_s']:.0f} req/s, "
        f"fast {row['fast_requests_per_s']:.0f} req/s "
        f"(speedup {row['speedup']:.1f}x, spec {row['spec_hash']})"
        for name, row in results.items()
    ]
    emit("engine throughput trend (scalar vs fast)", "\n".join(lines))
    for row in results.values():
        assert row["speedup"] > 1.0


@pytest.mark.slow
def test_bench_fast_engine_100k_speedup(benchmark):
    def evaluate():
        scalar_report, scalar_wall = _measure(
            _scenario_spec(num_requests=100_000, output_tokens=1024, mode="scalar")
        )
        fast_report, fast_wall = _measure(
            _scenario_spec(num_requests=100_000, output_tokens=1024, mode="fast")
        )
        assert _comparable(scalar_report) == _comparable(fast_report)
        return scalar_wall, fast_wall

    scalar_wall, fast_wall = run_once(benchmark, evaluate)
    speedup = scalar_wall / max(fast_wall, 1e-9)
    emit(
        "fast engine, 100k-request Poisson trace",
        f"scalar {scalar_wall:.1f}s, fast {fast_wall:.1f}s (speedup {speedup:.1f}x)",
    )
    assert speedup >= 20.0


@pytest.mark.slow
def test_bench_fast_engine_million_requests(benchmark):
    def evaluate():
        return _measure(_scenario_spec(num_requests=1_000_000, output_tokens=256, mode="fast"))

    report, wall = run_once(benchmark, evaluate)
    # ru_maxrss is in KB on Linux: the peak of the whole test process.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit(
        "fast engine, 10^6-request Poisson trace",
        f"completed in {wall:.1f}s, peak RSS {peak_rss_mb:.0f} MB "
        f"({report.requests_served} served, {report.requests_dropped} dropped)",
    )
    assert report.requests_served + report.requests_dropped == 1_000_000
    assert report.requests_served > 0
