"""Percentile-batching micro-benchmark: merged-fleet stats cost one sort.

Not a paper figure: regression coverage for the ``LatencyStats`` percentile
fix.  ``from_records`` computes each metric family's p50/p95/p99 from a
single ``np.percentile`` call, so the merged-fleet stats pass costs
O(n log n) total rather than one sort per percentile, and stays bit-identical
to the one-at-a-time ``percentile`` calls it replaced.
"""

from __future__ import annotations

import random
import time

from repro.serving.lifecycle import LatencyStats, RequestRecord, percentile

from _helpers import emit, run_once


def _records(count: int, seed: int = 0) -> list[RequestRecord]:
    rng = random.Random(seed)
    records = []
    for request_id in range(count):
        arrival = rng.uniform(0.0, 50.0)
        first = arrival + rng.uniform(0.01, 2.0)
        finish = first + rng.uniform(0.1, 20.0)
        records.append(
            RequestRecord(
                request_id=request_id,
                prompt_tokens=256,
                output_tokens=64,
                arrival_s=arrival,
                admitted_s=arrival,
                first_token_s=first,
                finish_s=finish,
            )
        )
    return records


def _time_stats(records: list[RequestRecord]) -> float:
    start = time.perf_counter()
    LatencyStats.from_records(records)
    return time.perf_counter() - start


def test_bench_merged_fleet_percentiles(benchmark):
    def evaluate():
        base = 50_000
        small = _records(base)
        large = _records(4 * base)
        # Warm-up evens out allocator/import noise before the timed pair.
        _time_stats(small)
        small_wall = min(_time_stats(small) for _ in range(3))
        large_wall = min(_time_stats(large) for _ in range(3))
        stats = LatencyStats.from_records(large)
        ttfts = [record.ttft_s for record in large]
        return small_wall, large_wall, stats, ttfts

    small_wall, large_wall, stats, ttfts = run_once(benchmark, evaluate)
    growth = large_wall / max(small_wall, 1e-9)
    emit(
        "merged-fleet percentile cost (50k -> 200k records)",
        f"50k: {small_wall * 1e3:.1f}ms, 200k: {large_wall * 1e3:.1f}ms "
        f"(growth {growth:.1f}x for 4x the records)",
    )
    # O(n log n) predicts ~4.4x for 4x the records; allow generous CI noise
    # but stay far below the ~16x an accidentally quadratic pass would show.
    assert growth < 12.0
    # Batching must not move the numbers: same values as one-at-a-time calls.
    assert stats.ttft_p50_s == percentile(ttfts, 0.50)
    assert stats.ttft_p95_s == percentile(ttfts, 0.95)
    assert stats.ttft_p99_s == percentile(ttfts, 0.99)
