"""Plain-text report formatting for benchmark outputs."""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.api.report import TierReport
    from repro.serving.engine import EngineResult
    from repro.serving.router import FleetResult


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    float_format: str = "{:.3g}",
) -> str:
    """Render a simple aligned text table.

    Args:
        headers: Column headers.
        rows: Row values; floats are formatted with ``float_format``.
        title: Optional title line.
        float_format: Format string applied to float cells.
    """
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def serving_summary_table(results: Sequence["EngineResult"], title: str = "") -> str:
    """Render throughput plus lifecycle latency metrics of serving runs.

    One row per :class:`~repro.serving.engine.EngineResult`, combining the
    legacy throughput/batch counters with the engine's TTFT / TPOT and
    end-to-end latency percentiles (milliseconds).
    """
    rows = []
    for result in results:
        rows.append(
            [
                result.system_name,
                result.admission_policy,
                result.throughput_tokens_per_s,
                result.average_batch_size,
                result.latency.ttft_mean_s * 1e3,
                result.latency.tpot_mean_s * 1e3,
                result.latency.latency_p50_s * 1e3,
                result.latency.latency_p95_s * 1e3,
                result.latency.latency_p99_s * 1e3,
            ]
        )
    headers = [
        "system",
        "admission",
        "tokens/s",
        "avg batch",
        "TTFT ms",
        "TPOT ms",
        "p50 ms",
        "p95 ms",
        "p99 ms",
    ]
    return format_table(headers, rows, title=title)


def fleet_summary_table(fleet: FleetResult, title: str = "") -> str:
    """Render per-replica rows plus the merged fleet row of a routed run.

    Replica rows report each engine's own counters, labelled with the
    slot the engine served (a timeline fleet can run several engine
    lifetimes on one slot); the fleet row reports the merged view --
    aggregate tokens per wall-clock second (tokens over the slowest
    replica's makespan) and percentiles recomputed over the union of
    request records.
    """
    slots: Sequence[int] = range(len(fleet.replica_results))
    if fleet.timeline is not None:
        slots = [segment.slot for segment in fleet.timeline.segments]
    rows = []
    for slot, result in zip(slots, fleet.replica_results, strict=True):
        rows.append(
            [
                f"replica {slot}",
                result.requests_served,
                result.requests_dropped,
                result.throughput_tokens_per_s,
                result.makespan_s,
                result.latency.ttft_p95_s * 1e3,
                result.latency.latency_p99_s * 1e3,
            ]
        )
    rows.append(
        [
            f"fleet ({fleet.policy})",
            fleet.requests_served,
            fleet.requests_dropped,
            fleet.aggregate_throughput_tokens_per_s,
            fleet.makespan_s,
            fleet.latency.ttft_p95_s * 1e3,
            fleet.latency.latency_p99_s * 1e3,
        ]
    )
    headers = [
        "replica",
        "served",
        "dropped",
        "tokens/s",
        "makespan s",
        "TTFT p95 ms",
        "p99 ms",
    ]
    return format_table(headers, rows, title=title)


def tier_summary_table(tiers: Sequence["TierReport"], title: str = "") -> str:
    """Render per-tier goodput / SLO-attainment rows of a tiered run.

    One row per :class:`~repro.api.report.TierReport`, ordering exactly as
    the report does (spec order, then the ``"untiered"`` bucket).
    """
    rows = []
    for tier in tiers:
        rows.append(
            [
                tier.name,
                tier.priority,
                tier.num_requests,
                tier.requests_finished,
                tier.goodput,
                tier.ttft_attainment,
                tier.tpot_attainment,
                tier.preemptions,
                tier.latency.ttft_p95_s * 1e3,
                tier.latency.tpot_mean_s * 1e3,
            ]
        )
    headers = [
        "tier",
        "prio",
        "requests",
        "finished",
        "goodput",
        "TTFT att",
        "TPOT att",
        "preempt",
        "TTFT p95 ms",
        "TPOT ms",
    ]
    return format_table(headers, rows, title=title)
