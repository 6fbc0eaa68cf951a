"""SLO-tier goodput benchmark: priority-aware vs blind preemption.

Runs the shipped oversubscribed tiered scenario (18 requests growing to
768 tokens on one CENT module, ~1.5x KV oversubscription; every 4th
request premium with TTFT/TPOT deadlines, the rest best-effort) under
``evict-lru`` and ``evict-priority-lru`` and records per-tier goodput and
SLO attainment.  The tier-aware policy must buy strictly higher premium
goodput at equal load while best-effort keeps making progress.
"""

from benchmarks._helpers import emit, run_once
from repro.analysis.reporting import format_table
from repro.api.build import run
from repro.api.spec import (
    ExperimentSpec,
    ModelSpec,
    PreemptionSpec,
    SystemSpec,
    TierSpec,
    TraceSpec,
)

POLICIES = ("evict-lru", "evict-priority-lru")


def tiered_pressure_spec(policy: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"bench-goodput-{policy}",
        model=ModelSpec(name="LLM-7B-32K"),
        system=SystemSpec(kind="pim-only", num_modules=1, pimphony="full"),
        preemption=PreemptionSpec(
            policy=policy, mode="swap", swap_bandwidth_gbps=64.0, starvation_limit=4
        ),
        trace=TraceSpec(
            source="synthetic", num_requests=18, prompt_tokens=256, output_tokens=512
        ),
        tiers=(
            TierSpec(
                name="premium",
                priority=5,
                share=0.25,
                ttft_deadline_s=0.5,
                tpot_deadline_s=0.035,
            ),
            TierSpec(name="best-effort"),
        ),
        seed=5,
        step_stride=8,
    )


def build_comparison():
    rows = []
    reports = {policy: run(tiered_pressure_spec(policy)) for policy in POLICIES}
    for policy, report in reports.items():
        premium = report.tier_report("premium")
        best_effort = report.tier_report("best-effort")
        rows.append(
            [
                policy,
                premium.goodput,
                premium.ttft_attainment,
                premium.tpot_attainment,
                premium.preemptions,
                best_effort.goodput,
                best_effort.preemptions,
                report.goodput,
                report.makespan_s,
            ]
        )
    blind = reports["evict-lru"]
    aware = reports["evict-priority-lru"]
    # Equal load, equal completed work either way.
    assert aware.requests_served == blind.requests_served == 18
    assert aware.total_output_tokens == blind.total_output_tokens
    # The headline property: tier-aware preemption buys strictly higher
    # premium goodput without zeroing out the best-effort class.
    assert aware.tier_report("premium").goodput > blind.tier_report("premium").goodput
    assert aware.tier_report("premium").preemptions == 0
    assert aware.tier_report("best-effort").goodput > 0.0
    return rows


def test_priority_preemption_buys_premium_goodput(benchmark):
    rows = run_once(benchmark, build_comparison)
    emit(
        "SLO tiers: premium vs best-effort goodput under 1.5x KV oversubscription "
        "(18 requests x 768 tokens on one CENT module, premium share 0.25)",
        format_table(
            [
                "policy",
                "premium goodput",
                "TTFT att",
                "TPOT att",
                "premium preempt",
                "BE goodput",
                "BE preempt",
                "all goodput",
                "makespan s",
            ],
            rows,
        ),
    )
