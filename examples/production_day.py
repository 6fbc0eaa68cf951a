"""A production day: diurnal traffic, a peak-hour failure, and an autoscaler.

The shipped ``examples/specs/diurnal_autoscale.json`` scenario compresses a
production day into two 60-second diurnal cycles: 24k requests whose
Poisson rate swings sinusoidally between 80 and 320 req/s (amplitude 0.6,
a 4x peak-to-trough ratio), served by xPU replicas capped at batch 8 with
a 0.5s TTFT deadline on every request.  At the first peak (t=30s) replica
0 fails -- its in-flight requests lose their KV and re-warm elsewhere --
and comes back cold ten seconds later.

Two fleets face that day:

* **autoscaled** -- starts at 2 replicas; a reactive queue-depth
  controller (up at mean depth 6, drain below 3.5, 1s interval, 3s cold
  start) grows to at most 6 and drains back through the troughs;
* **static-peak** -- 6 replicas provisioned for the whole day, the
  capacity a static fleet must hold because sizing for anything less
  collapses at peak (a static 2-replica trough fleet attains ~6% of TTFT
  deadlines on this trace).

The autoscaled fleet must hold >= 95% TTFT-deadline attainment through
the swing *and* the failure while spending fewer replica-hours than the
static-peak fleet -- elasticity priced in the capacity-planning currency.

The scenario also runs straight from the CLI:

    python -m repro run examples/specs/diurnal_autoscale.json

Run with:  python examples/production_day.py
"""

import json
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.api.build import run
from repro.api.spec import ExperimentSpec

SPEC_PATH = Path(__file__).parent / "specs" / "diurnal_autoscale.json"

#: The autoscaled day must keep at least this fraction of requests inside
#: their TTFT deadline.
ATTAINMENT_FLOOR = 0.95


def load_specs() -> dict[str, ExperimentSpec]:
    """The shipped autoscaled spec and its static-peak comparator."""
    autoscaled = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    static_peak = json.loads(json.dumps(autoscaled))
    static_peak["name"] = "diurnal-static-peak"
    static_peak["router"]["replicas"] = static_peak["autoscaler"]["max_replicas"]
    del static_peak["autoscaler"]
    return {
        "autoscaled": ExperimentSpec.from_dict(autoscaled).validate(),
        "static-peak": ExperimentSpec.from_dict(static_peak).validate(),
    }


def overall_ttft_attainment(report) -> float:
    arrivals = sum(window.arrivals for window in report.windows)
    attained = sum(window.ttft_attained for window in report.windows)
    return attained / arrivals if arrivals else 1.0


def main() -> None:
    reports = {label: run(spec) for label, spec in load_specs().items()}

    rows = []
    for index, window in enumerate(reports["autoscaled"].windows):
        static_window = reports["static-peak"].windows[index]
        rows.append(
            [
                f"{window.start_s:.0f}-{window.end_s:.0f}s",
                window.arrivals,
                f"{window.ttft_attainment:.1%}",
                f"{static_window.ttft_attainment:.1%}",
                f"{window.latency.ttft_p95_s * 1e3:.0f}ms",
            ]
        )
    print(
        format_table(
            ["window", "arrivals", "autoscaled TTFT att", "static-peak TTFT att",
             "autoscaled TTFT p95"],
            rows,
            title="Two diurnal cycles (80-320 req/s), replica 0 down 30-40s",
        )
    )

    summary_rows = []
    for label, report in reports.items():
        timeline = report.fleet_timeline
        summary_rows.append(
            [
                label,
                f"{overall_ttft_attainment(report):.2%}",
                f"{report.goodput:.2%}",
                round(timeline.replica_hours, 4),
                timeline.peak_replicas,
                timeline.scale_ups,
                timeline.scale_downs,
                timeline.restarts,
                timeline.kv_lost_tokens,
            ]
        )
    print()
    print(
        format_table(
            ["fleet", "TTFT att", "goodput", "replica-hours", "peak",
             "ups", "downs", "restarts", "KV lost"],
            summary_rows,
            title="Day summary (one replica_down at peak in both fleets)",
        )
    )

    autoscaled = reports["autoscaled"]
    static_peak = reports["static-peak"]
    attainment = overall_ttft_attainment(autoscaled)
    hours = autoscaled.fleet_timeline.replica_hours
    static_hours = static_peak.fleet_timeline.replica_hours

    # The elastic fleet must survive the day inside the SLO for less money.
    assert attainment >= ATTAINMENT_FLOOR, (
        f"autoscaled TTFT attainment {attainment:.2%} fell below "
        f"{ATTAINMENT_FLOOR:.0%}"
    )
    assert hours < static_hours, (
        f"autoscaled fleet spent {hours:.4f} replica-hours, not less than "
        f"the static-peak fleet's {static_hours:.4f}"
    )
    assert autoscaled.fleet_timeline.failures == 1
    assert autoscaled.fleet_timeline.restarts > 0

    saved = 1.0 - hours / static_hours
    print(
        f"\nAutoscaled fleet held {attainment:.1%} TTFT attainment through a "
        f"4x diurnal swing plus a peak-hour replica failure, spending "
        f"{hours:.3f} replica-hours vs {static_hours:.3f} static-peak "
        f"({saved:.0%} saved)."
    )


if __name__ == "__main__":
    main()
