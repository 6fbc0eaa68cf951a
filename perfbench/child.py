"""One benchmark run in a fresh process: set up, serve, write, check.

``perfbench/run.py`` spawns this module once per run::

    python3 -m perfbench.child --workload NAME --seed N --out FILE --spawned-at T [--trace]

It imports ``repro`` from the checkout's ``src``, builds the workload's
spec, serves it, writes ``RunReport.to_dict()`` as JSON to ``FILE`` and
prints one JSON object (host timings, the output check, ``sim_digest`` and
the headline simulated outputs) as its last stdout line.  With ``--trace``
the layer tracer is installed between the import and the build, and the
per-layer metrics and span table are added.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: Report keys left out of ``sim_digest``: provenance, not simulated output.
DIGEST_EXCLUDED = ("spec", "spec_hash", "engine_mode")


def import_repro() -> float:
    """Import ``repro`` from the checkout's ``src``; returns the host seconds taken."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.monotonic()
    repro = importlib.import_module("repro")
    importlib.import_module("repro.api.build")
    elapsed = time.monotonic() - start
    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")
    return elapsed


@dataclass
class Served:
    """What one served spec left behind."""

    report: Any
    trace: Any
    data: dict[str, Any]
    build_s: float
    run_s: float
    built_at: float
    written_at: float


def serve(spec: dict[str, Any], out: Path) -> Served:
    """Build ``spec``, serve it, and write its report JSON to ``out``."""
    experiment_spec = importlib.import_module("repro.api.spec").ExperimentSpec
    build = importlib.import_module("repro.api.build").build
    start = time.monotonic()
    built = build(experiment_spec.from_dict(spec))
    built_at = time.monotonic()
    report = built.run()
    ran_at = time.monotonic()
    data = report.to_dict()
    out.write_text(json.dumps(data))
    return Served(
        report=report,
        trace=built.trace,
        data=data,
        build_s=built_at - start,
        run_s=ran_at - built_at,
        built_at=built_at,
        written_at=time.monotonic(),
    )


def sim_digest(data: dict[str, Any]) -> str:
    """Hash of the report's simulated content (provenance keys excluded)."""
    kept = {key: value for key, value in data.items() if key not in DIGEST_EXCLUDED}
    canonical = json.dumps(kept, sort_keys=True, allow_nan=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def check_outputs(report: Any, trace: Any) -> list[str]:
    """Conservation and sanity checks of one report; returns the failures."""
    errors: list[str] = []
    if report.requests_served + report.requests_dropped != report.num_requests:
        errors.append(
            f"served {report.requests_served} + dropped {report.requests_dropped} "
            f"!= attempted {report.num_requests}"
        )
    if report.num_requests != len(trace.requests):
        errors.append(f"report counts {report.num_requests} requests, trace {len(trace.requests)}")
    records = [record for result in report.replica_results for record in result.request_records]
    finished = [record for record in records if record.finished]
    if len(finished) != report.requests_served:
        errors.append(f"{len(finished)} finished records != {report.requests_served} served")
    outputs = {request.request_id: request.output_tokens for request in trace.requests}
    expected_tokens = sum(outputs[record.request_id] for record in finished)
    if report.total_output_tokens != expected_tokens:
        errors.append(
            f"simulated {report.total_output_tokens} output tokens, served requests "
            f"ask for {expected_tokens}"
        )
    latency = report.latency
    for family in ("ttft", "tpot", "latency"):
        triple = [getattr(latency, f"{family}_p{p}_s") for p in (50, 95, 99)]
        if not all(math.isfinite(value) and value >= 0 for value in triple):
            errors.append(f"{family} percentiles not finite and non-negative: {triple}")
        elif not triple[0] <= triple[1] <= triple[2]:
            errors.append(f"{family} percentiles out of order: {triple}")
    if not 0.0 <= report.goodput <= 1.0:
        errors.append(f"goodput {report.goodput} outside [0, 1]")
    return errors


def sim_headline(report: Any) -> dict[str, float]:
    """Headline simulated outputs, labelled ``sim.*`` (checked, not gated)."""
    return {
        "sim.ttft_p95_s": report.latency.ttft_p95_s,
        "sim.tpot_p95_s": report.latency.tpot_p95_s,
        "sim.throughput_tokens_per_s": report.aggregate_throughput_tokens_per_s,
        "sim.makespan_s": report.makespan_s,
        "sim.output_tokens": report.total_output_tokens,
        "sim.preemptions": report.preemptions,
        "sim.goodput": report.goodput,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS[args.workload].spec_for(args.seed)
    import_s = import_repro()
    layer_trace = None
    if args.trace:
        from perfbench.layers import LayerTrace

        layer_trace = LayerTrace()
        layer_trace.install()
    served = serve(spec, args.out)
    result: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "wall_s": served.written_at - args.spawned_at,
        "setup_s": import_s + served.build_s,
        "sim_tokens_per_host_s": served.report.total_output_tokens
        / (served.written_at - served.built_at),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_s": served.run_s,
        "sim_digest": sim_digest(served.data),
        "errors": check_outputs(served.report, served.trace),
        "sim": sim_headline(served.report),
    }
    if layer_trace is not None:
        from perfbench.layers import layer_metrics

        layer_trace.restore()
        result["layers"] = layer_metrics(layer_trace, import_s, served.run_s, served.report)
        result["spans"] = layer_trace.tracer.rows()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
