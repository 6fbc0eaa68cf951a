"""Disaggregation benchmark and the BENCH_disagg_tpot.json trend.

Not a paper figure: tracks the prefill/decode disaggregation win on the
shipped prompt-heavy workload (``examples/specs/disagg_prompt_heavy.json``)
release-over-release.  At equal total hardware (4 replicas either way) the
two-pool topology must beat the colocated fleet on decode TPOT p95 --
dedicated prefill replicas keep chunked prompt processing out of the decode
engines -- while honestly charging every KV handoff through the modelled
point-to-point link.  CI uploads ``BENCH_disagg_tpot.json`` as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api.build import run
from repro.api.spec import ExperimentSpec, apply_override

from _helpers import emit, run_once

REPO_ROOT = Path(__file__).resolve().parents[1]
SPEC_PATH = REPO_ROOT / "examples" / "specs" / "disagg_prompt_heavy.json"
BENCH_JSON = REPO_ROOT / "BENCH_disagg_tpot.json"


def _specs() -> tuple[ExperimentSpec, ExperimentSpec]:
    data = json.loads(SPEC_PATH.read_text())
    disagg = ExperimentSpec.from_dict(data).validate()
    colocated_data = json.loads(json.dumps(data))
    apply_override(colocated_data, "router.topology", "colocated")
    apply_override(colocated_data, "router.disagg", None)
    colocated = ExperimentSpec.from_dict(colocated_data).validate()
    return disagg, colocated


def test_bench_disagg_tpot_trend(benchmark):
    def evaluate():
        disagg_spec, colocated_spec = _specs()
        disagg = run(disagg_spec)
        colocated = run(colocated_spec)
        assert disagg.disagg is not None
        assert disagg.requests_served == colocated.requests_served
        return {
            "spec_hash": disagg_spec.spec_hash,
            "requests_served": disagg.requests_served,
            "colocated_tpot_p95_ms": colocated.latency.tpot_p95_s * 1e3,
            "disagg_tpot_p95_ms": disagg.latency.tpot_p95_s * 1e3,
            "tpot_p95_speedup": colocated.latency.tpot_p95_s / disagg.latency.tpot_p95_s,
            "colocated_ttft_p95_s": colocated.latency.ttft_p95_s,
            "disagg_ttft_p95_s": disagg.latency.ttft_p95_s,
            "kv_transfer_s": disagg.disagg.kv_transfer_s,
            "handoffs": disagg.disagg.handoffs,
            "prefill_pool_utilization": disagg.disagg.prefill_pool_utilization,
            "decode_pool_utilization": disagg.disagg.decode_pool_utilization,
        }

    row = run_once(benchmark, evaluate)
    BENCH_JSON.write_text(json.dumps({"disagg_prompt_heavy": row}, indent=2) + "\n")
    emit(
        "disaggregation TPOT trend (equal hardware)",
        f"colocated TPOT p95 {row['colocated_tpot_p95_ms']:.2f} ms, "
        f"disagg {row['disagg_tpot_p95_ms']:.2f} ms "
        f"(speedup {row['tpot_p95_speedup']:.2f}x, "
        f"{row['handoffs']} handoffs, {row['kv_transfer_s']:.2f} s KV transfer, "
        f"spec {row['spec_hash']})",
    )
    assert row["kv_transfer_s"] > 0
    assert row["handoffs"] == row["requests_served"]
    assert row["tpot_p95_speedup"] > 1.2
