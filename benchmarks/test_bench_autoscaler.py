"""Autoscaler goodput benchmark and the BENCH_autoscaler_goodput.json trend.

Not a paper figure: the production-day scenario
(``examples/specs/diurnal_autoscale.json``) run as a tracked trend.  Two
diurnal cycles at a 4x peak-to-trough swing with a replica failure at the
first peak are served by the reactive autoscaler and by a static fleet
provisioned for the peak.  The benchmark records TTFT-deadline attainment
and replica-hours for both (spec-hashed for comparability) into
``BENCH_autoscaler_goodput.json``, which CI uploads as an artifact and
gates against the committed baseline in ``benchmarks/baselines/`` via
``benchmarks/check_bench_autoscaler.py``.

The simulation is fully seeded, so unlike the wall-clock throughput
trend these numbers are machine-independent.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.api.build import run

from _helpers import emit, run_once

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_autoscaler_goodput.json"

sys.path.insert(0, str(REPO_ROOT / "examples"))
from production_day import load_specs, overall_ttft_attainment  # noqa: E402


def test_bench_autoscaler_goodput_trend(benchmark):
    def evaluate():
        return {label: run(spec) for label, spec in load_specs().items()}

    reports = run_once(benchmark, evaluate)
    autoscaled = reports["autoscaled"]
    static_peak = reports["static-peak"]
    attainment = overall_ttft_attainment(autoscaled)
    hours = autoscaled.fleet_timeline.replica_hours
    static_hours = static_peak.fleet_timeline.replica_hours

    assert attainment >= 0.95
    assert hours < static_hours

    scenario = {
        "spec_hash": autoscaled.spec_hash,
        "static_spec_hash": static_peak.spec_hash,
        "ttft_attainment": attainment,
        "goodput": autoscaled.goodput,
        "replica_hours": hours,
        "static_replica_hours": static_hours,
        "replica_hours_saved_fraction": 1.0 - hours / static_hours,
        "peak_replicas": autoscaled.fleet_timeline.peak_replicas,
        "scale_ups": autoscaled.fleet_timeline.scale_ups,
        "scale_downs": autoscaled.fleet_timeline.scale_downs,
        "failures": autoscaled.fleet_timeline.failures,
        "restarts": autoscaled.fleet_timeline.restarts,
        "kv_lost_tokens": autoscaled.fleet_timeline.kv_lost_tokens,
    }
    BENCH_JSON.write_text(
        json.dumps({"scenarios": {"diurnal_autoscale_day": scenario}}, indent=2) + "\n"
    )
    emit(
        "Autoscaler goodput (production day)",
        json.dumps(scenario, indent=2),
    )
