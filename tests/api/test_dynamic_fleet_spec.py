"""Dynamic-fleet specs: fast/scalar parity and hash stability.

The fleet timeline must not disturb anything that existed before it:
shipped spec files keep their exact hashes (the new sub-specs elide at
default), and the vectorized engine reports exactly the same
dynamic-fleet report as the scalar engine across a randomized sweep of
arrival processes, failures and autoscaling.
"""

import dataclasses
import json
import pathlib
import re

import pytest

from repro.api.build import build, run
from repro.api.spec import (
    ArrivalSpec,
    AutoscalerSpec,
    BurstSpec,
    DisaggSpec,
    ExperimentSpec,
    FleetEventSpec,
    PreemptionSpec,
    RouterSpec,
    TierSpec,
    WarpPhaseSpec,
)
from repro.serving.fleet_events import DynamicFleetRouter

SPEC_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples" / "specs"

#: Pinned hashes of the specs shipped before the fleet timeline existed.
#: These move only when the canonical schema itself changes (recorded
#: once, with the reason, in CHANGES.md): the newer sub-specs (arrival /
#: fleet_events / autoscaler / window_s) elide at their defaults, so a
#: spec that does not use them serializes byte-for-byte as it always did.
LEGACY_SPEC_HASHES = {
    "disagg_prompt_heavy.json": "72763b5eb2fa",
    "fleet_4replica_poisson.json": "4d2c8219317f",
    "multi_turn_prefix_cache.json": "327e7f07ded4",
    "pim_only_qmsum.json": "a8f2a97a1159",
    "preemption_evict_lru.json": "edefa6cb27c6",
    "tiered_slo_oversubscribed.json": "fb42f927fc73",
    "xpu_only_qmsum.json": "de0fa7155ed6",
    "xpu_pim_long_context.json": "cade1f0e8a2d",
}

NEW_SPEC_KEYS = ("arrival", "fleet_events", "autoscaler", "window_s")

#: The canonical schema: every key ``to_dict`` writes, by dotted location,
#: for :func:`_every_key_spec`.  A field added to any spec class shows up
#: here, so adding one is a deliberate choice between moving every
#: ``spec_hash`` and marking the field to elide at its default.
CANONICAL_KEYS = {
    "": {
        "name", "model", "system", "parallelism", "allocator", "engine",
        "admission", "preemption", "prefill", "prefix_cache", "trace",
        "arrival", "tiers", "router", "fleet_events", "autoscaler",
        "window_s", "seed", "step_stride",
    },
    "model": {"name", "context_window"},
    "system": {"kind", "num_modules", "pimphony"},
    "parallelism": {"tensor_parallel", "pipeline_parallel"},
    "allocator": {"mode"},
    "engine": {"mode"},
    "admission": {"policy", "max_batch_size"},
    "preemption": {
        "policy", "mode", "swap_bandwidth_gbps", "recompute_per_token_s",
        "starvation_limit",
    },
    "prefill": {"mode", "model", "chunk_tokens", "per_token_s", "per_token_sq_s", "base_s"},
    "prefix_cache": {"enabled", "capacity_tokens"},
    "trace": {
        "source", "dataset", "num_requests", "output_tokens", "prompt_tokens",
        "heavy_every", "heavy_prompt_tokens", "num_sessions",
        "turns_per_session", "followup_tokens", "turn_gap_s",
    },
    "arrival": {
        "process", "rate_rps", "period_s", "amplitude", "phase_s", "bursts",
        "times", "warp",
    },
    "arrival.bursts.0": {"start_s", "duration_s", "multiplier"},
    "arrival.warp.0": {"start_s", "factor"},
    "tiers.0": {
        "name", "priority", "share", "sessions", "ttft_deadline_s", "tpot_deadline_s",
    },
    "router": {
        "replicas", "policy", "probe_context_tokens", "ewma_alpha", "topology", "disagg",
    },
    "router.disagg": {
        "prefill_replicas", "link_bandwidth_bytes_per_s", "link_latency_s", "decode_policy",
    },
    "fleet_events.0": {"at_s", "kind", "replica"},
    "autoscaler": {
        "signal", "scale_up_threshold", "scale_down_threshold", "min_replicas",
        "max_replicas", "interval_s", "cooldown_s", "cold_start_s", "ewma_alpha",
    },
}

#: Each field ``to_dict`` leaves out at its default, and a spec setting
#: only that field to a non-default value (on top of a default fleet).
ELIDED_AT_DEFAULT = {
    "preemption.starvation_limit": {"preemption": PreemptionSpec(starvation_limit=2)},
    "tiers": {"tiers": (TierSpec(),)},
    "router.topology": {"router": RouterSpec(topology="disaggregated")},
    "router.disagg": {"router": RouterSpec(disagg=DisaggSpec())},
    "arrival": {"arrival": ArrivalSpec(process="replay")},
    "fleet_events": {"fleet_events": (FleetEventSpec(),)},
    "autoscaler": {"autoscaler": AutoscalerSpec()},
    "window_s": {"window_s": 1.0},
}


def _every_key_spec() -> ExperimentSpec:
    """Every sub-spec present once and every elided field set."""
    return ExperimentSpec(
        preemption=PreemptionSpec(starvation_limit=2),
        arrival=ArrivalSpec(process="replay", bursts=(BurstSpec(),), warp=(WarpPhaseSpec(),)),
        tiers=(TierSpec(),),
        router=RouterSpec(topology="disaggregated", disagg=DisaggSpec()),
        fleet_events=(FleetEventSpec(),),
        autoscaler=AutoscalerSpec(),
        window_s=1.0,
    )


def _key_sets(node, path: str = "") -> dict[str, set[str]]:
    """The key set of every mapping inside ``node``, by dotted location."""
    found: dict[str, set[str]] = {}
    children = ()
    if isinstance(node, dict):
        found[path] = set(node)
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    for key, child in children:
        found.update(_key_sets(child, _dotted(path, str(key))))
    return found


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _has(data: dict, dotted: str) -> bool:
    *parents, last = dotted.split(".")
    for part in parents:
        data = data.get(part) or {}
    return last in data


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
            declared = json.loads((SPEC_DIR / name).read_text())
            payload = _load(name).to_dict()
            for key in NEW_SPEC_KEYS:
                assert (key in payload) == (key in declared), f"{name} grew a {key!r} key"

    def test_canonical_schema_is_pinned(self):
        assert _key_sets(_every_key_spec().to_dict()) == CANONICAL_KEYS

    def test_default_spec_writes_every_unmarked_key(self):
        data = ExperimentSpec().to_dict()
        expected = {
            path: {key for key in keys if _dotted(path, key) not in ELIDED_AT_DEFAULT}
            for path, keys in CANONICAL_KEYS.items()
            if path == "" or isinstance(data.get(path), dict)
        }
        assert _key_sets(data) == expected

    def test_marked_fields_appear_exactly_when_non_default(self):
        base = ExperimentSpec(router=RouterSpec())
        for dotted, overrides in ELIDED_AT_DEFAULT.items():
            data = dataclasses.replace(base, **overrides).to_dict()
            present = {other for other in ELIDED_AT_DEFAULT if _has(data, other)}
            assert present == {dotted}, dotted
            assert not any(_has(base.to_dict(), other) for other in ELIDED_AT_DEFAULT)

    def test_legacy_report_has_no_new_blocks(self):
        report = run(_load("pim_only_qmsum.json")).to_dict()
        assert "fleet_timeline" not in report
        assert "windows" not in report["metrics"]
        assert "replica_hours" not in report["metrics"]
        assert "peak_replicas" not in report["metrics"]


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
