"""Prefix/KV-reuse benchmark: multi-turn sessions with and without reuse.

A seeded multi-turn trace (seven 4-turn conversations, accumulated
prefixes) is served by a 4-replica fleet under session-affinity and
round-robin routing, with the per-replica prefix cache on and off.
Session affinity is what makes the cache pay: a session's turns land on
the replica holding its prefix, so follow-up turns prefill only their
uncached suffix and TTFT collapses.  Round-robin scatters the turns
across caches that never hold the right prefix, making the two policies
an apples-to-apples experiment the per-replica hit rates explain.
"""

from benchmarks._helpers import emit, run_once
from repro.analysis.reporting import format_table
from repro.api.build import run
from repro.api.spec import (
    ExperimentSpec,
    PrefillSpec,
    PrefixCacheSpec,
    RouterSpec,
    SystemSpec,
    TraceSpec,
)

POLICIES = ("session-affinity", "round-robin")


def multi_turn_spec(policy: str, enabled: bool) -> ExperimentSpec:
    # Seven sessions on four replicas on purpose: a multiple of the
    # replica count would let round-robin fake perfect affinity.
    return ExperimentSpec(
        name=f"bench-prefix-{policy}-{'on' if enabled else 'off'}",
        system=SystemSpec(kind="pim-only", num_modules=1),
        prefill=PrefillSpec(mode="chunked", chunk_tokens=256),
        prefix_cache=PrefixCacheSpec(enabled=enabled),
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


def build_comparison():
    rows = []
    reports = {}
    for policy in POLICIES:
        for enabled in (False, True):
            report = run(multi_turn_spec(policy, enabled))
            reports[(policy, enabled)] = report
            rows.append(
                [
                    policy,
                    "on" if enabled else "off",
                    report.prefix_hit_rate,
                    report.prefix_hit_tokens,
                    report.ttft_mean_s * 1e3,
                    report.ttft_p95_s * 1e3,
                    report.latency_p95_s,
                    report.makespan_s,
                ]
            )

    affinity_on = reports[("session-affinity", True)]
    affinity_off = reports[("session-affinity", False)]
    rr_on = reports[("round-robin", True)]

    # Same work under every configuration.
    for report in reports.values():
        assert report.requests_served == 28
        assert report.total_output_tokens == affinity_off.total_output_tokens

    # The cache only pays under affinity: hits concentrate where the
    # session's prefix lives, and TTFT p95 collapses versus both the
    # cache-off run and the scattered round-robin run.
    assert affinity_on.prefix_hit_rate > 0.5
    assert affinity_on.prefix_hit_tokens > rr_on.prefix_hit_tokens
    assert affinity_on.ttft_p95_s < 0.7 * affinity_off.ttft_p95_s
    assert affinity_on.ttft_p95_s < 0.7 * rr_on.ttft_p95_s
    assert affinity_on.ttft_mean_s < 0.5 * affinity_off.ttft_mean_s
    # Parity off the cache path: disabling reuse restores PR 4 behaviour,
    # so both cache-off policies report zero lookups.
    assert affinity_off.prefix_hits == affinity_off.prefix_misses == 0
    return rows


def test_prefix_cache_collapses_multi_turn_ttft(benchmark):
    rows = run_once(benchmark, build_comparison)
    emit(
        "Prefix/KV reuse: 7 sessions x 4 turns on a 4-replica fleet "
        "(chunked prefill; per-replica LRU prefix cache)",
        format_table(
            [
                "routing",
                "cache",
                "hit rate",
                "hit tokens",
                "TTFT mean ms",
                "TTFT p95 ms",
                "p95 s",
                "makespan s",
            ],
            rows,
        ),
    )
