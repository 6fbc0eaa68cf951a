"""Prefix/KV reuse walkthrough: multi-turn sessions meet session affinity.

Seven 4-turn conversations arrive at a 4-replica PIM fleet.  Within a
session every follow-up turn's prompt is the previous turn's entire
context plus fresh user input, so most of its prefill work is redundant
-- *if* the request lands on the replica that already holds the
session's KV prefix.  This example runs the same seeded trace through
the four combinations of routing policy (session-affinity vs
round-robin) and per-replica prefix cache (on vs off):

* **affinity + cache** -- follow-up turns hit the replica's prefix cache
  and prefill only their uncached suffix: TTFT collapses.
* **round-robin + cache** -- turns scatter across replicas whose caches
  never hold the session's prefix: the cache buys nothing, which is why
  per-replica hit rates make the policies an apples-to-apples experiment.
* **cache off** -- PR 4 behaviour, bit-identical regardless of policy
  pinning (the parity tests hold the engine to this).

The scenario also ships as JSON:

    python -m repro run examples/specs/multi_turn_prefix_cache.json
    python -m repro run examples/specs/multi_turn_prefix_cache.json \
        --set router.policy=round-robin

Run with:  python examples/multi_turn_prefix_reuse.py
"""

from repro.analysis.reporting import format_table
from repro.api.build import run
from repro.api.spec import (
    ExperimentSpec,
    ModelSpec,
    PrefillSpec,
    PrefixCacheSpec,
    RouterSpec,
    SystemSpec,
    TraceSpec,
)

POLICIES = ("session-affinity", "round-robin")


def multi_turn_spec(policy: str, cache_enabled: bool) -> ExperimentSpec:
    # Seven sessions on four replicas: a session count that is a multiple
    # of the replica count would let round-robin fake perfect affinity.
    return ExperimentSpec(
        name=f"prefix-reuse-{policy}-{'on' if cache_enabled else 'off'}",
        model=ModelSpec(name="LLM-7B-32K"),
        system=SystemSpec(kind="pim-only", num_modules=1, pimphony="full"),
        prefill=PrefillSpec(mode="chunked", chunk_tokens=256),
        prefix_cache=PrefixCacheSpec(enabled=cache_enabled),
        trace=TraceSpec(
            source="multi-turn",
            num_requests=28,
            num_sessions=7,
            turns_per_session=4,
            prompt_tokens=1024,
            followup_tokens=128,
            output_tokens=96,
            turn_gap_s=40.0,
        ),
        router=RouterSpec(replicas=4, policy=policy),
        seed=7,
        step_stride=4,
    )


def main() -> None:
    reports = {
        (policy, enabled): run(multi_turn_spec(policy, enabled))
        for policy in POLICIES
        for enabled in (False, True)
    }

    rows = []
    for (policy, enabled), report in reports.items():
        rows.append(
            [
                policy,
                "on" if enabled else "off",
                report.prefix_hit_rate,
                report.prefix_hit_tokens,
                report.ttft_mean_s * 1e3,
                report.ttft_p95_s * 1e3,
                report.makespan_s,
            ]
        )
    print(
        format_table(
            [
                "routing",
                "cache",
                "hit rate",
                "hit tokens",
                "TTFT mean ms",
                "TTFT p95 ms",
                "makespan s",
            ],
            rows,
            title="7 sessions x 4 turns, 4 replicas (chunked prefill)",
        )
    )

    affinity_on = reports[("session-affinity", True)]
    affinity_off = reports[("session-affinity", False)]
    rr_on = reports[("round-robin", True)]

    # Every configuration completes the same work.
    for report in reports.values():
        assert report.requests_served == 28
        assert report.total_output_tokens == affinity_off.total_output_tokens
    # The cache pays only where the prefix lives.
    assert affinity_on.prefix_hit_rate > 0.5
    assert affinity_on.ttft_p95_s < rr_on.ttft_p95_s
    assert affinity_on.ttft_mean_s < affinity_off.ttft_mean_s

    print(
        "\nPer-replica hit rates under session-affinity: "
        + ", ".join(f"{rate:.0%}" for rate in affinity_on.fleet.prefix_hit_rates)
        + f"\nTTFT p95 {affinity_off.ttft_p95_s:.2f}s -> {affinity_on.ttft_p95_s:.2f}s "
        f"with the cache on (round-robin stays at {rr_on.ttft_p95_s:.2f}s: "
        f"hit rate {rr_on.prefix_hit_rate:.0%})."
    )


if __name__ == "__main__":
    main()
