"""KV lifecycle walkthrough: preemption under capacity pressure.

A single CENT-style PIM module serving LLM-7B keeps ~3GB for KV cache
(3072 one-megabyte chunks).  Twelve requests that each grow to 768 tokens
need 4608 chunks -- a 1.5x oversubscription.  The same
:class:`~repro.api.spec.ExperimentSpec` is run under every preemption policy:

* ``preemption.policy="none"`` -- the admit-to-completion contract: each
  request's *final* context is committed at admission, so only eight fit
  and the rest queue outside while committed-but-unused chunks sit idle.
* ``evict-lru`` / ``evict-largest`` / ``evict-youngest`` -- the
  incremental lifecycle contract: admission reserves only the prompt, all
  twelve start immediately, and mid-decode ``CapacityExceeded`` growth is
  resolved by paging a victim out (here: swapped over a 64GB/s host link,
  charged to the clock) and restoring it once capacity frees.

Every policy completes every request; the lifecycle contract admits
strictly more concurrent work and keeps the cache fuller, at the price of
preemption stalls the report itemises (count, requeue delay, overhead).

The evict-lru scenario also ships as JSON:

    python -m repro run examples/specs/preemption_evict_lru.json
    python -m repro run examples/specs/preemption_evict_lru.json \
        --sweep preemption.policy=none,evict-lru,evict-largest,evict-youngest

Run with:  python examples/preemption_under_pressure.py
"""

from repro.analysis.reporting import format_table
from repro.api.build import run
from repro.api.spec import ExperimentSpec, ModelSpec, PreemptionSpec, SystemSpec, TraceSpec

POLICIES = ("none", "evict-lru", "evict-largest", "evict-youngest")


def pressure_spec(policy: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"preemption-{policy}",
        model=ModelSpec(name="LLM-7B-32K"),
        system=SystemSpec(kind="pim-only", num_modules=1, pimphony="full"),
        preemption=PreemptionSpec(policy=policy, mode="swap", swap_bandwidth_gbps=64.0),
        trace=TraceSpec(
            source="synthetic", num_requests=12, prompt_tokens=256, output_tokens=512
        ),
        seed=5,
        step_stride=4,
    )


def main() -> None:
    reports = {policy: run(pressure_spec(policy)) for policy in POLICIES}

    rows = []
    for policy, report in reports.items():
        rows.append(
            [
                policy,
                report.requests_served,
                report.peak_batch_size,
                report.average_capacity_utilization,
                report.preemptions,
                report.requeue_delay_mean_s * 1e3,
                report.preemption_overhead_s * 1e3,
                report.makespan_s,
            ]
        )
    print(
        format_table(
            [
                "policy",
                "served",
                "peak batch",
                "KV util",
                "preempt",
                "requeue ms",
                "overhead ms",
                "makespan s",
            ],
            rows,
            title="12 requests x 768 tokens on one PIM module (1.5x oversubscribed)",
        )
    )

    baseline = reports["none"]
    for policy in POLICIES[1:]:
        report = reports[policy]
        # The lifecycle contract must not lose work...
        assert report.requests_served == baseline.requests_served == 12
        assert report.total_output_tokens == baseline.total_output_tokens
        # ...and must admit strictly more concurrent requests while
        # keeping the cache strictly fuller than the up-front commitment.
        assert report.peak_batch_size > baseline.peak_batch_size
        assert report.average_capacity_utilization > baseline.average_capacity_utilization
        assert report.preemptions > 0
    print(
        "\nAll policies completed all 12 requests; peak concurrency "
        f"{baseline.peak_batch_size} -> "
        f"{max(reports[p].peak_batch_size for p in POLICIES[1:])} and KV utilisation "
        f"{baseline.average_capacity_utilization:.0%} -> "
        f"{max(reports[p].average_capacity_utilization for p in POLICIES[1:]):.0%} "
        "under the lifecycle contract."
    )


if __name__ == "__main__":
    main()
