"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a fresh ``perfbench.child`` process, spawned one at a time.
Untraced runs repeat until the next one would overrun ``--seconds`` (at
least three run).  This process and its children are pinned to one CPU,
and before the first run and after every run this process times the fixed
reference loop of ``perfbench.calibrate``.  Each run's host times are
scaled by the host speed measured around it, so that a phase in which
neighbours slow the core does not read as a slower simulator.  Every
end-to-end metric is the median of the scaled values, printed with its
sample count and the raw median.  With ``--trace 1`` the untraced runs get half the
time and one traced run follows, which gives the per-layer metrics.  Every
run's output is checked and must carry the same ``sim_digest``; a run that
raises, fails the check or disagrees counts as failed.  The last stdout
line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything else -- per-run values, simulated outputs, the span table -- is
stored in ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.calibrate import host_speed, pin_to_one_cpu, reference_s  # noqa: E402
from perfbench.layers import LAYER_METRICS, unit_of  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
MIN_RUNS = 3
MAX_RUNS = 60
#: Every child is killed by this many seconds after the command starts.
DEADLINE_S = 170.0

#: The power of ``host_speed`` that turns each end-to-end metric into the
#: reference host's: times scale with the speed, rates against it, memory
#: not at all.
SPEED_POWER = {"wall_s": 1, "setup_s": 1, "sim_tokens_per_host_s": -1, "peak_rss_mb": 0}

#: Per-layer ratios and counts that show which layers a workload stresses.
SHARES = (
    "engine.span_eval_share",
    "kernels.share_of_run",
    "preemption.request_share",
    "fleet.segments",
)


def spawn(workload: str, seed: int, traced: bool, timeout_s: float) -> dict[str, Any]:
    """Run one child to completion; returns its result or an ``error`` entry."""
    out = OUT_DIR / f"report-{workload}-seed{seed}.json"
    command = [
        sys.executable,
        "-m",
        "perfbench.child",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--out",
        str(out),
        "--spawned-at",
        repr(time.monotonic()),
    ]
    if traced:
        command.append("--trace")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"killed after {timeout_s:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"traced": traced, "error": tail[0]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"traced": traced, "error": f"unreadable result line: {lines[-1][:200]}"}


def failures(runs: list[dict[str, Any]]) -> tuple[dict[int, str], str | None]:
    """Why each failed run failed, by run index, and the digest the rest share."""
    digests = Counter(
        run["sim_digest"] for run in runs if "error" not in run and not run["errors"]
    )
    digest = digests.most_common(1)[0][0] if digests else None
    reasons = {}
    for index, run in enumerate(runs):
        if "error" in run:
            reasons[index] = f"raised: {run['error']}"
        elif run["errors"]:
            reasons[index] = f"failed the output check: {'; '.join(run['errors'])}"
        elif run["sim_digest"] != digest:
            reasons[index] = f"sim_digest {run['sim_digest']} != {digest}"
    return reasons, digest


def run_children(
    workload: str, seed: int, seconds: float, trace: bool, start: float
) -> list[dict[str, Any]]:
    """Untraced runs until the next would overrun the budget, then the traced one.

    The reference loop is timed before the first run and after each run;
    every run records both timings around it and the ``host_speed`` they give.
    """
    budget_s = seconds / 2 if trace else seconds
    runs: list[dict[str, Any]] = []
    references = [reference_s()]
    laps: list[float] = []

    def remaining_s() -> float:
        return max(1.0, start + DEADLINE_S - time.monotonic())

    def timed(traced: bool) -> dict[str, Any]:
        lap_start = time.monotonic()
        run = spawn(workload, seed, traced=traced, timeout_s=remaining_s())
        references.append(reference_s())
        run["reference_s"] = references[-2:]
        run["host_speed"] = host_speed(*references[-2:])
        laps.append(time.monotonic() - lap_start)
        return run

    while len(runs) < MAX_RUNS:
        runs.append(timed(traced=False))
        expected_s = statistics.median(laps)
        if len(runs) >= MIN_RUNS and time.monotonic() - start + expected_s > budget_s:
            break
    if trace:
        runs.append(timed(traced=True))
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Compile up front so no timed run pays for writing bytecode.
    if not compileall.compile_dir(ROOT / "src" / "repro", quiet=1):
        print("perfbench: src/repro does not compile", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)

    cpu = pin_to_one_cpu()
    runs = run_children(args.workload, args.seed, args.seconds, bool(args.trace), start)
    reasons, digest = failures(runs)
    good = [run for index, run in enumerate(runs) if index not in reasons]
    untraced = [run for run in good if not run["traced"]]
    if not untraced or (args.trace and len(runs) - 1 in reasons):
        print("perfbench: runs failed:", *reasons.values(), sep="\n  ", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} runs, {len(reasons)} failed")
    for index, reason in reasons.items():
        print(f"  run {index} {reason}")
    end_to_end = {}
    raw: dict[str, float] = {}
    for metric in declared["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        power = SPEED_POWER[name]
        value = statistics.median(run[name] * run["host_speed"] ** power for run in untraced)
        raw[name] = statistics.median(run[name] for run in untraced)
        end_to_end[name] = {"value": value, "unit": unit}
        print(
            f"{name:<28} {value:>14.6g} {unit:<5} median of {len(untraced)} runs "
            f"(raw {raw[name]:.6g})"
        )
    speeds = sorted(run["host_speed"] for run in untraced)
    print(
        f"{'host_speed':<28} {statistics.median(speeds):>14.6g} ratio "
        f"median of {len(speeds)} runs, {speeds[0]:.3g} to {speeds[-1]:.3g}, cpu {cpu}"
    )
    error_rate = len(reasons) / len(runs)
    print(f"{'run_error_rate':<28} {error_rate:>14.6g} ratio {len(reasons)}/{len(runs)} runs")
    print(f"{'sim_digest':<28} {digest:>14}")
    sim = untraced[0]["sim"]
    for name, value in sim.items():
        print(f"{name:<28} {value:>14.6g}")

    stored: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "spec": WORKLOADS[args.workload].spec_for(args.seed),
        "failures": reasons,
        "run_error_rate": error_rate,
        "sim_digest": digest,
        "sim": sim,
        "end_to_end": end_to_end,
        "end_to_end_raw": raw,
        "cpu": cpu,
    }
    metrics = end_to_end
    if args.trace:
        traced = runs[-1]
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - raw["wall_s"]
        print("per-layer metrics of the traced run:")
        for name in LAYER_METRICS:
            print(f"  {name:<40} {layers[name]:>14.6g} {unit_of(name)}")
        print("property shares:")
        for name in SHARES:
            print(f"  {name:<40} {layers[name]:>14.6g} {unit_of(name)}")
        metrics = {
            metric["name"]: {"value": layers[metric["name"]], "unit": metric["unit"]}
            for metric in declared["per_layer"]
        }
        stored["layers"] = layers
        stored["shares"] = {name: layers[name] for name in SHARES}
        stored["spans"] = traced.pop("spans")
    stored["runs"] = runs
    stored_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    stored_path.write_text(json.dumps(stored, indent=1))

    result = {
        "correct": not reasons,
        "attempted": len(runs),
        "failed": len(reasons),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
