"""Prefill/decode disaggregation: handoff pricing, parity, spec schema.

The two-pool topology must (a) charge every request's KV transfer before
its first decode token, priced from actual KV bytes through
``InterconnectConfig.point_to_point_seconds``; (b) collapse to the exact
colocated run when the topology is trivial (``prefill_replicas=0``), in
both engine modes; and (c) keep colocated spec JSON -- and therefore
``spec_hash`` -- bit-identical to the pre-disaggregation schema.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, run
from repro.api.spec import apply_override
from repro.serving.disagg import PrefillPool
from repro.serving.prefill import LinearPrefillModel, PrefillConfig
from repro.system.interconnect import InterconnectConfig
from repro.workloads.traces import Request, RequestTrace

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLE_SPEC = REPO_ROOT / "examples" / "specs" / "disagg_prompt_heavy.json"


def _base_dict(**trace_overrides) -> dict:
    trace = {
        "source": "synthetic",
        "num_requests": 8,
        "prompt_tokens": 2048,
        "output_tokens": 16,
    }
    trace.update(trace_overrides)
    return {
        "name": "disagg-test",
        "model": {"name": "LLM-7B-32K"},
        "system": {"kind": "xpu-only", "num_modules": 2},
        "trace": trace,
        "arrival": {"process": "poisson", "rate_rps": 40.0},
        "prefill": {"mode": "chunked", "model": "system", "chunk_tokens": 512},
        "router": {
            "replicas": 3,
            "topology": "disaggregated",
            "disagg": {"prefill_replicas": 1},
        },
        "seed": 3,
        "step_stride": 4,
    }


def _with_overrides(data: dict, overrides: dict) -> dict:
    clone = json.loads(json.dumps(data))
    for path, value in overrides.items():
        apply_override(clone, path, value)
    return clone


def _report_dict(data: dict) -> dict:
    report = run(ExperimentSpec.from_dict(data)).to_dict()
    for key in ("spec", "spec_hash", "engine_mode"):
        report.pop(key, None)
    return report


def assert_close(left, right, path: str = "report") -> None:
    if isinstance(left, dict):
        assert isinstance(right, dict) and left.keys() == right.keys(), path
        for key in left:
            assert_close(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for index, (a, b) in enumerate(zip(left, right, strict=True)):
            assert_close(a, b, f"{path}[{index}]")
    elif isinstance(left, float) and not isinstance(left, bool):
        assert right == pytest.approx(left, rel=1e-9, abs=1e-9), path
    else:
        assert left == right, path


class TestHandoffPricing:
    def test_kv_transfer_priced_from_actual_kv_bytes(self):
        """kv_transfer_s equals sum of p2p(prompt_tokens x bytes/token)."""
        data = _base_dict()
        spec = ExperimentSpec.from_dict(data).validate()
        report = run(spec)
        assert report.disagg is not None
        from repro.api import build

        built = build(spec)
        disagg = spec.router.disagg
        link = InterconnectConfig(
            bandwidth_bytes_per_s=disagg.link_bandwidth_bytes_per_s,
            latency_s=disagg.link_latency_s,
        )
        per_request_bytes = 2048 * built.system.kv_bytes_per_token
        expected = report.disagg.handoffs * link.point_to_point_seconds(per_request_bytes)
        assert report.disagg.kv_transfer_s == pytest.approx(expected, rel=1e-12)
        assert report.disagg.kv_transfer_bytes == report.disagg.handoffs * per_request_bytes

    def test_transfer_charged_before_first_decode(self):
        """Adding pure link latency delays every TTFT by exactly that much."""
        extra = 0.125
        base = _base_dict(num_requests=1)
        del base["arrival"]
        data = _with_overrides(base, {"router.disagg.link_latency_s": 0.0})
        slow = _with_overrides(base, {"router.disagg.link_latency_s": extra})
        base_ttft = run(ExperimentSpec.from_dict(data)).latency.ttft_mean_s
        slow_ttft = run(ExperimentSpec.from_dict(slow)).latency.ttft_mean_s
        assert slow_ttft - base_ttft == pytest.approx(extra, rel=1e-12)

    def test_tpot_excludes_transfer_and_prefill(self):
        """TPOT spans first-to-last token: pure decode, unmoved by the link."""
        data = _base_dict(num_requests=1)
        del data["arrival"]
        slow = _with_overrides(data, {"router.disagg.link_latency_s": 0.125})
        base = run(ExperimentSpec.from_dict(data)).latency.tpot_mean_s
        delayed = run(ExperimentSpec.from_dict(slow)).latency.tpot_mean_s
        assert delayed == pytest.approx(base, rel=1e-12)

    def test_report_carries_disagg_block(self):
        report = run(ExperimentSpec.from_dict(_base_dict()))
        payload = report.to_dict()
        assert payload["metrics"]["kv_transfer_s"] > 0
        assert payload["metrics"]["handoffs"] == report.requests_served
        block = payload["disagg"]
        assert block["prefill_replicas"] == 1
        assert block["decode_replicas"] == 2
        assert block["handoffs"] == report.requests_served
        assert 0 < block["prefill_pool_utilization"] <= 1.0
        assert 0 < block["decode_pool_utilization"] <= 1.0

    def test_colocated_report_has_no_disagg_keys(self):
        data = _with_overrides(
            _base_dict(), {"router.topology": "colocated", "router.disagg": None}
        )
        payload = run(ExperimentSpec.from_dict(data)).to_dict()
        assert "disagg" not in payload
        assert "kv_transfer_s" not in payload["metrics"]
        assert "handoffs" not in payload["metrics"]


class TestTrivialTopologyParity:
    @pytest.mark.parametrize("mode", ["scalar", "fast"])
    def test_zero_prefill_replicas_matches_colocated(self, mode):
        data = json.loads(EXAMPLE_SPEC.read_text())
        trivial = _with_overrides(
            data, {"router.disagg.prefill_replicas": 0, "engine.mode": mode}
        )
        colocated = _with_overrides(
            data,
            {"router.topology": "colocated", "router.disagg": None, "engine.mode": mode},
        )
        assert_close(_report_dict(colocated), _report_dict(trivial))

    def test_example_spec_improves_decode_tpot_at_equal_hardware(self):
        """The shipped spec's headline claim: disagg beats colocated TPOT p95."""
        data = json.loads(EXAMPLE_SPEC.read_text())
        colocated = _with_overrides(
            data, {"router.topology": "colocated", "router.disagg": None}
        )
        disagg_report = run(ExperimentSpec.from_dict(data))
        colocated_report = run(ExperimentSpec.from_dict(colocated))
        assert disagg_report.requests_served == colocated_report.requests_served
        assert (
            disagg_report.latency.tpot_p95_s < 0.75 * colocated_report.latency.tpot_p95_s
        )


class TestPrefillPool:
    def _pool(self, replicas: int = 1) -> PrefillPool:
        from repro.api import ExperimentSpec, build

        spec = ExperimentSpec.from_dict(
            {
                "name": "pool-under-test",
                "model": {"name": "LLM-7B-32K"},
                "system": {"kind": "xpu-only", "num_modules": 1},
            }
        )
        system = build(spec).system
        return PrefillPool(
            system=system,
            prefill=PrefillConfig(model=LinearPrefillModel(per_token_s=1e-3), chunk_tokens=64),
            replicas=replicas,
            link=InterconnectConfig(bandwidth_bytes_per_s=1e9, latency_s=0.0),
        )

    def test_serial_fcfs_per_replica(self):
        """Back-to-back prompts on one replica queue; finish times telescope."""
        pool = self._pool(replicas=1)
        trace = RequestTrace(
            dataset="unit",
            requests=(
                Request(request_id=0, prompt_tokens=100, output_tokens=4, arrival_s=0.0),
                Request(request_id=1, prompt_tokens=200, output_tokens=4, arrival_s=0.0),
            ),
        )
        phase = pool.run(trace)
        first, second = phase.handoffs[0], phase.handoffs[1]
        assert first.prefill_s == pytest.approx(0.1)
        assert second.prefill_start_s == pytest.approx(first.prefill_finish_s)
        assert phase.makespan_s == pytest.approx(0.1 + 0.2)
        assert phase.busy_seconds == (pytest.approx(0.3),)

    def test_least_loaded_replica_selection(self):
        pool = self._pool(replicas=2)
        trace = RequestTrace(
            dataset="unit",
            requests=tuple(
                Request(request_id=i, prompt_tokens=100, output_tokens=4, arrival_s=0.0)
                for i in range(2)
            ),
        )
        phase = pool.run(trace)
        assert {phase.handoffs[0].prefill_replica, phase.handoffs[1].prefill_replica} == {0, 1}
        assert phase.makespan_s == pytest.approx(0.1)

    def test_unservable_request_dropped_not_fatal(self):
        """A prompt the allocator can never reserve is dropped, not fatal."""

        class TinySystem:
            # Two 1 MiB chunks of KV capacity: a 4096-token context can
            # never be admitted, a ~68-token one fits in a single chunk.
            kv_capacity_bytes = 2 * 1024 * 1024
            kv_bytes_per_token = 1024
            max_context_tokens = 4096
            dynamic_memory = True

        pool = PrefillPool(
            system=TinySystem(),
            prefill=PrefillConfig(model=LinearPrefillModel(per_token_s=1e-3), chunk_tokens=64),
            replicas=1,
            link=InterconnectConfig(bandwidth_bytes_per_s=1e9, latency_s=0.0),
        )
        trace = RequestTrace(
            dataset="unit",
            requests=(
                Request(request_id=0, prompt_tokens=64, output_tokens=4, arrival_s=0.0),
                Request(request_id=1, prompt_tokens=4096, output_tokens=8, arrival_s=0.0),
            ),
        )
        phase = pool.run(trace)
        assert phase.dropped == (1,)
        assert set(phase.handoffs) == {0}


class TestSpecSchema:
    def test_colocated_spec_json_is_bit_identical_to_pre_disagg_schema(self):
        data = _with_overrides(
            _base_dict(), {"router.topology": "colocated", "router.disagg": None}
        )
        spec = ExperimentSpec.from_dict(data).validate()
        payload = spec.to_dict()
        assert "topology" not in payload["router"]
        assert "disagg" not in payload["router"]
        assert ExperimentSpec.from_dict(payload) == spec

    def test_disagg_spec_round_trips(self):
        spec = ExperimentSpec.from_dict(_base_dict()).validate()
        payload = spec.to_dict()
        assert payload["router"]["topology"] == "disaggregated"
        assert payload["router"]["disagg"]["prefill_replicas"] == 1
        assert ExperimentSpec.from_dict(payload) == spec
        assert ExperimentSpec.from_dict(payload).spec_hash == spec.spec_hash

    @pytest.mark.parametrize(
        ("overrides", "match"),
        [
            ({"router.disagg": None}, "requires router.disagg"),
            ({"router.disagg.prefill_replicas": 3}, "leave no decode replica"),
            ({"router.disagg.prefill_replicas": 5}, "leave no decode replica"),
            ({"prefill.mode": "blocking"}, "chunked"),
            ({"prefill.mode": "none"}, "chunked"),
            ({"prefix_cache.enabled": True}, "prefix_cache"),
            ({"router.topology": "banana"}, "router.topology"),
        ],
    )
    def test_invalid_disagg_specs_rejected(self, overrides, match):
        data = _with_overrides(_base_dict(), overrides)
        with pytest.raises(ValueError, match=match):
            ExperimentSpec.from_dict(data).validate()

    def test_disagg_without_disaggregated_topology_rejected(self):
        data = _with_overrides(_base_dict(), {"router.topology": "colocated"})
        with pytest.raises(ValueError, match="requires router.topology"):
            ExperimentSpec.from_dict(data).validate()

    def test_cli_lists_topologies(self, capsys):
        from repro.api.cli import main

        assert main(["list", "topologies"]) == 0
        out = capsys.readouterr().out
        assert "colocated" in out
        assert "disaggregated" in out
