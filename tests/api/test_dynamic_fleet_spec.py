"""Dynamic-fleet specs: fast/scalar parity, equivalence pins, hash stability.

The fleet timeline must not disturb anything that existed before it:
shipped spec files keep their exact hashes (the new sub-specs elide at
default), a plain ``arrival.process='poisson'`` reproduces the legacy
``trace.arrival='poisson'`` switch seed for seed, and the vectorized
engine reports exactly the same dynamic-fleet report as the scalar
engine across a randomized sweep of arrival processes, failures and
autoscaling.
"""

import json
import pathlib
import re

import pytest

from repro.api import ExperimentSpec, run
from repro.api.build import build, build_trace
from repro.serving import DynamicFleetRouter

SPEC_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples" / "specs"

#: Pinned hashes of the specs shipped before the fleet timeline existed.
#: These must never move: the new sub-specs (arrival / fleet_events /
#: autoscaler / window_s) elide at their defaults, so a spec that does
#: not use them serializes byte-for-byte as it always did.
LEGACY_SPEC_HASHES = {
    "disagg_prompt_heavy.json": "e265e9e207e9",
    "fleet_4replica_poisson.json": "8b51101ed76b",
    "multi_turn_prefix_cache.json": "2917deaee010",
    "pim_only_qmsum.json": "8b547d087e2e",
    "preemption_evict_lru.json": "5ed9952102c7",
    "tiered_slo_oversubscribed.json": "eae1ab494bef",
    "xpu_only_qmsum.json": "8833e8330020",
    "xpu_pim_long_context.json": "a4ce32d94c14",
}

NEW_SPEC_KEYS = ("arrival", "fleet_events", "autoscaler", "window_s")


def _load(name: str) -> ExperimentSpec:
    return ExperimentSpec.from_dict(json.loads((SPEC_DIR / name).read_text()))


class TestLegacySpecStability:
    def test_shipped_spec_hashes_are_bit_identical(self):
        on_disk = {path.name for path in SPEC_DIR.glob("*.json")}
        assert set(LEGACY_SPEC_HASHES) <= on_disk
        for name, expected in LEGACY_SPEC_HASHES.items():
            assert _load(name).spec_hash == expected, name

    def test_legacy_specs_serialize_without_new_keys(self):
        for name in LEGACY_SPEC_HASHES:
            payload = _load(name).to_dict()
            for key in NEW_SPEC_KEYS:
                assert key not in payload, f"{name} grew a {key!r} key"

    def test_legacy_report_has_no_new_blocks(self):
        report = run(_load("pim_only_qmsum.json")).to_dict()
        assert "fleet_timeline" not in report
        assert "windows" not in report["metrics"]
        assert "replica_hours" not in report["metrics"]
        assert "peak_replicas" not in report["metrics"]


class TestArrivalEquivalencePin:
    def test_arrival_poisson_matches_legacy_trace_switch(self):
        base = {
            "name": "pin",
            "model": {"name": "LLM-7B-32K"},
            "system": {"kind": "pim-only", "pimphony": "full"},
            "trace": {
                "source": "dataset",
                "dataset": "qmsum",
                "num_requests": 24,
                "output_tokens": 8,
            },
            "seed": 11,
        }
        legacy = ExperimentSpec.from_dict(
            {**base, "trace": {**base["trace"], "arrival": "poisson", "rate_rps": 40.0}}
        )
        modern = ExperimentSpec.from_dict(
            {**base, "arrival": {"process": "poisson", "rate_rps": 40.0}}
        )
        assert build_trace(legacy) == build_trace(modern)


def _dynamic_spec_data(seed: int) -> dict:
    """One deterministic point of the randomized dynamic sweep."""
    import random

    rng = random.Random(seed)
    process = rng.choice(["diurnal", "burst"])
    arrival: dict = {"process": process, "rate_rps": rng.uniform(25.0, 50.0)}
    if process == "diurnal":
        arrival["period_s"] = rng.uniform(0.8, 2.0)
        arrival["amplitude"] = rng.uniform(0.2, 0.8)
    else:
        arrival["bursts"] = [
            {
                "start_s": 0.2,
                "duration_s": rng.uniform(0.2, 0.4),
                "multiplier": rng.uniform(2.0, 5.0),
            }
        ]
    data: dict = {
        "name": f"dynamic-parity-{seed}",
        "model": {"name": "LLM-7B-32K"},
        "system": {"kind": "pim-only", "pimphony": "full"},
        "trace": {
            "source": "dataset",
            "dataset": "qmsum",
            "num_requests": 32,
            "output_tokens": 12,
        },
        "router": {"replicas": 2, "policy": "least-outstanding"},
        "arrival": arrival,
        "window_s": 0.5,
        "seed": seed,
        "step_stride": 4,
    }
    if rng.random() < 0.75:
        down_s = rng.uniform(0.2, 0.5)
        data["fleet_events"] = [
            {"at_s": down_s, "kind": "replica_down", "replica": 1},
            {"at_s": down_s + rng.uniform(0.3, 0.6), "kind": "replica_up", "replica": 1},
        ]
    if rng.random() < 0.75:
        data["autoscaler"] = {
            "signal": rng.choice(["queue-depth", "ttft-ewma"]),
            "scale_up_threshold": rng.uniform(2.0, 4.0),
            "scale_down_threshold": rng.uniform(0.1, 0.5),
            "min_replicas": 1,
            "max_replicas": 4,
            "interval_s": rng.uniform(0.1, 0.25),
            "cooldown_s": 0.0,
            "cold_start_s": rng.uniform(0.1, 0.3),
        }
    if rng.random() < 0.5:
        data["preemption"] = {"policy": "evict-lru"}
    if rng.random() < 0.5:
        data["prefix_cache"] = {"enabled": True}
        data["trace"]["num_sessions"] = 8
    return data


def _simulated(report) -> str:
    """The report's JSON without the keys that name the engine mode."""
    payload = report.to_dict()
    for key in ("spec", "spec_hash", "engine_mode"):
        del payload[key]
    return json.dumps(payload, sort_keys=True)


class TestDynamicFastScalarParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fast_engine_matches_scalar_on_dynamic_fleet(self, seed):
        # Both modes run the one engine loop, so the whole report --
        # metrics, windows, per-replica rows, segments and autoscaler
        # decisions -- must match exactly.
        data = _dynamic_spec_data(seed)
        scalar = run(ExperimentSpec.from_dict({**data, "engine": {"mode": "scalar"}}))
        fast = run(ExperimentSpec.from_dict({**data, "engine": {"mode": "fast"}}))
        assert _simulated(fast) == _simulated(scalar)

    def test_dynamic_report_round_trips_to_json(self):
        report = run(ExperimentSpec.from_dict(_dynamic_spec_data(0)))
        payload = report.to_dict()
        json.dumps(payload)
        assert "fleet_timeline" in payload
        assert "windows" in payload["metrics"]
        series = payload["metrics"]["windows"]["series"]
        # Dropped requests never reach an engine, so they have no record
        # and no window membership; everything else does.
        assert sum(window["arrivals"] for window in series) == 32 - report.requests_dropped


def _failover_spec() -> ExperimentSpec:
    """A two-replica timeline whose slot 1 fails and recovers (no autoscaler)."""
    data = _dynamic_spec_data(0)
    data.pop("autoscaler", None)
    data["fleet_events"] = [
        {"at_s": 0.3, "kind": "replica_down", "replica": 1},
        {"at_s": 0.7, "kind": "replica_up", "replica": 1},
    ]
    return ExperimentSpec.from_dict(data)


class TestTimelineFleetSurface:
    def test_build_exposes_the_timeline_router_and_its_initial_engines(self):
        built = build(_failover_spec())
        assert isinstance(built.router, DynamicFleetRouter)
        assert built.engines == tuple(built.router.replicas)
        assert len(built.engines) == 2
        with pytest.raises(ValueError, match="router fleet"):
            built.engine

    def test_summary_table_labels_rows_by_slot(self):
        # Slot 1 runs two engine lifetimes (failed, then recovered); both
        # rows must say "replica 1", not their position in the result.
        report = run(_failover_spec())
        assert report.fleet_timeline is not None
        labels = re.findall(r"^(replica \d+)\s", report.summary_table(), flags=re.MULTILINE)
        assert labels == ["replica 0", "replica 1", "replica 1"]
        assert labels == [f"replica {seg.slot}" for seg in report.fleet_timeline.segments]
