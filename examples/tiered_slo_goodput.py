"""SLO tiers walkthrough: priority-aware preemption buys premium goodput.

The shipped ``examples/specs/tiered_slo_oversubscribed.json`` scenario puts
eighteen requests that each grow to 768 tokens on a single CENT-style PIM
module (~1.5x KV oversubscription) and splits the trace into two SLO tiers:

* ``premium`` -- every 4th request (``share=0.25``), priority 5, with a
  0.5s TTFT deadline and a 35ms TPOT deadline;
* ``best-effort`` -- the catch-all remainder at priority 0, no deadlines.

The same spec is run under a priority-blind policy (``evict-lru``) and its
tier-aware counterpart (``evict-priority-lru``).  Blind LRU pages premium
requests out alongside everyone else, and the swap stalls blow their TPOT
deadline; the priority-aware policy drains victims from the best-effort
class first, so every premium request stays resident and inside its SLO.
``starvation_limit=4`` keeps the pressure fair inside the best-effort
class: no single victim absorbs every eviction.

The scenario also runs straight from the CLI:

    python -m repro run examples/specs/tiered_slo_oversubscribed.json
    python -m repro run examples/specs/tiered_slo_oversubscribed.json \
        --sweep preemption.policy=evict-lru,evict-priority-lru

Run with:  python examples/tiered_slo_goodput.py
"""

import json
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.api.build import run
from repro.api.spec import ExperimentSpec, apply_override

SPEC_PATH = Path(__file__).parent / "specs" / "tiered_slo_oversubscribed.json"
POLICIES = ("evict-lru", "evict-priority-lru")


def main() -> None:
    base = json.loads(SPEC_PATH.read_text(encoding="utf-8"))

    reports = {}
    for policy in POLICIES:
        data = json.loads(json.dumps(base))
        apply_override(data, "preemption.policy", policy)
        reports[policy] = run(ExperimentSpec.from_dict(data).validate())

    rows = []
    for policy, report in reports.items():
        premium = report.tier_report("premium")
        best_effort = report.tier_report("best-effort")
        rows.append(
            [
                policy,
                premium.goodput,
                premium.tpot_attainment,
                premium.preemptions,
                best_effort.goodput,
                best_effort.preemptions,
                report.goodput,
            ]
        )
    print(
        format_table(
            [
                "policy",
                "premium goodput",
                "premium TPOT att",
                "premium preempt",
                "BE goodput",
                "BE preempt",
                "all goodput",
            ],
            rows,
            title="18 requests x 768 tokens on one PIM module, premium share 0.25",
        )
    )

    blind = reports["evict-lru"]
    aware = reports["evict-priority-lru"]
    # Tier-aware preemption must strictly improve premium goodput at equal
    # load, without starving the best-effort class outright.
    assert aware.tier_report("premium").goodput > blind.tier_report("premium").goodput
    assert aware.tier_report("premium").preemptions == 0
    assert aware.tier_report("best-effort").goodput > 0.0
    print(
        "\nPremium goodput "
        f"{blind.tier_report('premium').goodput:.0%} -> "
        f"{aware.tier_report('premium').goodput:.0%} under evict-priority-lru; "
        "best-effort keeps "
        f"{aware.tier_report('best-effort').goodput:.0%} goodput."
    )


if __name__ == "__main__":
    main()
