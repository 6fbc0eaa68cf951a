"""Per-request lifecycle tracking and latency statistics.

The engine stamps each request at four points -- arrival, admission, first
generated token, completion -- and the aggregation here turns those stamps
into the serving metrics the paper's evaluation (and any production SLO)
cares about: time-to-first-token (TTFT), time-per-output-token (TPOT),
queueing delay, and end-to-end latency percentiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence


@dataclass(slots=True)
class RequestRecord:
    """Lifecycle timestamps and progress of one request.

    All times are simulation seconds.  ``first_token_s`` and ``finish_s``
    are ``nan`` until the corresponding event happens.
    """

    request_id: int
    prompt_tokens: int
    output_tokens: int
    arrival_s: float
    admitted_s: float = math.nan
    first_token_s: float = math.nan
    finish_s: float = math.nan
    generated: int = 0
    prefill_s: float = 0.0
    #: Times this request was paged out by a preemption policy.
    preemptions: int = 0
    #: Total time spent paged out waiting for re-admission (requeue delay).
    stall_s: float = 0.0
    #: Tokens re-prefilled by recompute-mode restores.
    recompute_tokens: int = 0
    #: Clock of the pending preemption (``nan`` while the request is live).
    preempted_s: float = math.nan
    #: Times this request was re-dispatched after a replica failure (the
    #: fleet timeline stamps it; a static fleet never restarts anything).
    restarts: int = 0
    #: Scheduling priority inherited from the request (tier priority).
    priority: int = 0
    #: SLO-tier name the request belongs to (``None`` means untiered).
    tier: str | None = None
    #: TTFT deadline in seconds (``None`` means no deadline).
    ttft_deadline_s: float | None = None
    #: TPOT deadline in seconds (``None`` means no deadline).
    tpot_deadline_s: float | None = None

    @property
    def finished(self) -> bool:
        return not math.isnan(self.finish_s)

    @property
    def preempted(self) -> bool:
        """Whether the request is currently paged out."""
        return not math.isnan(self.preempted_s)

    @property
    def queue_delay_s(self) -> float:
        """Time spent waiting for admission."""
        return self.admitted_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time-to-first-token: arrival to the first generated token."""
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Time-per-output-token over the steady decode phase.

        Measured from the first to the last generated token; requests that
        emit a single token have no inter-token gap and report 0.
        """
        if self.output_tokens <= 1:
            return 0.0
        return (self.finish_s - self.first_token_s) / (self.output_tokens - 1)

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to completion."""
        return self.finish_s - self.arrival_s

    @property
    def ttft_ok(self) -> bool:
        """Whether the first token met the TTFT deadline.

        With no deadline the SLO is vacuously attained; with one, an
        unserved request (no first token) counts as a miss.
        """
        if self.ttft_deadline_s is None:
            return True
        return self.ttft_s <= self.ttft_deadline_s  # nan comparisons are False

    @property
    def tpot_ok(self) -> bool:
        """Whether steady-state decode met the TPOT deadline.

        With no deadline the SLO is vacuously attained; with one, an
        unfinished request counts as a miss.
        """
        if self.tpot_deadline_s is None:
            return True
        return self.finished and self.tpot_s <= self.tpot_deadline_s

    @property
    def slo_ok(self) -> bool:
        """Goodput membership: finished within every configured deadline."""
        return self.finished and self.ttft_ok and self.tpot_ok


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``samples`` (``fraction`` in [0, 1])."""
    if not samples:
        return 0.0
    return percentiles(samples, (fraction,))[0]


def percentiles(samples: Sequence[float], fractions: Sequence[float]) -> tuple[float, ...]:
    """Several percentiles of one sample family from a single sort.

    Equivalent to ``tuple(percentile(samples, f) for f in fractions)``:
    each requested quantile is interpolated from the same sorted copy, so
    a p50/p95/p99 triple costs one O(n log n) sort rather than three.  The
    values equal ``np.percentile(samples, 100 * f)`` bit for bit (see
    :func:`_interpolate`); a NaN sample makes every percentile NaN.
    """
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
    if not samples:
        return tuple(0.0 for _ in fractions)
    return _sort_and_interpolate(list(samples), fractions)


def _sort_and_interpolate(samples: list[float], fractions: Sequence[float]) -> tuple[float, ...]:
    """:func:`percentiles` of a non-empty list, sorting the list itself.

    The caller hands over ``samples``: sorting in place spares the sorted
    copy, so a family's rollup holds one list rather than two.
    """
    if any(map(math.isnan, samples)):
        return tuple(math.nan for _ in fractions)
    samples.sort()
    return tuple(_interpolate(samples, fraction) for fraction in fractions)


#: The percentiles :class:`LatencyStats` reports for each metric family.
_TRIPLE = (0.50, 0.95, 0.99)


def _mean_and_triple(samples: list[float]) -> tuple[float, float, float, float]:
    """Mean (summed in ``samples`` order) and p50/p95/p99 of one family.

    Consumes ``samples``: the list is sorted in place after the sum.
    """
    mean = sum(samples) / len(samples)
    p50, p95, p99 = _sort_and_interpolate(samples, _TRIPLE)
    return mean, p50, p95, p99


def _interpolate(ordered: Sequence[float], fraction: float) -> float:
    """NumPy's default (``linear``) percentile of sorted, NaN-free samples.

    Follows ``np.percentile(ordered, fraction * 100)`` step for step, in
    the same float operations: the quantile ``(100 f) / 100``, the virtual
    index ``(n - 1) q``, and its floor and the next index as neighbours.
    At or past the last index numpy takes the last sample for both
    neighbours, as index -1, so the weight there is ``index + 1``.  The
    interpolation is numpy's ``_lerp``, which works back from the upper
    neighbour once the weight reaches one half.
    """
    last = len(ordered) - 1
    virtual = last * (fraction * 100.0 / 100)
    if virtual >= last:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    weight = virtual - below
    lower, upper = ordered[below], ordered[above]
    diff = upper - lower
    if weight >= 0.5:
        return float(upper - diff * (1 - weight))
    return float(lower + diff * weight)


@dataclass(frozen=True)
class LatencyStats:
    """Aggregated per-request latency metrics of one serving run.

    The p50/p95/p99 triple is reported for TTFT, TPOT and end-to-end
    latency so fleet-level merges (see
    :class:`~repro.serving.router.FleetResult`) can expose the same
    percentile surface a single replica does.
    """

    ttft_mean_s: float = 0.0
    ttft_p50_s: float = 0.0
    ttft_p95_s: float = 0.0
    ttft_p99_s: float = 0.0
    tpot_mean_s: float = 0.0
    tpot_p50_s: float = 0.0
    tpot_p95_s: float = 0.0
    tpot_p99_s: float = 0.0
    queue_delay_mean_s: float = 0.0
    prefill_mean_s: float = 0.0
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0

    @staticmethod
    def from_records(records: Sequence[RequestRecord]) -> LatencyStats:
        finished = [record for record in records if record.finished]
        if not finished:
            return LatencyStats()
        # One metric family at a time: each list is built, summed in record
        # order, sorted in place for its p50/p95/p99 (one sort per family,
        # bit-identical to separate ``percentile`` calls) and dropped when
        # its helper returns, so the rollup never holds more than one
        # family's samples.
        ttft_mean, ttft_p50, ttft_p95, ttft_p99 = _mean_and_triple(
            [record.ttft_s for record in finished]
        )
        tpot_mean, tpot_p50, tpot_p95, tpot_p99 = _mean_and_triple(
            [record.tpot_s for record in finished]
        )
        latency_p50, latency_p95, latency_p99 = _sort_and_interpolate(
            [record.latency_s for record in finished], _TRIPLE
        )
        return LatencyStats(
            ttft_mean_s=ttft_mean,
            ttft_p50_s=ttft_p50,
            ttft_p95_s=ttft_p95,
            ttft_p99_s=ttft_p99,
            tpot_mean_s=tpot_mean,
            tpot_p50_s=tpot_p50,
            tpot_p95_s=tpot_p95,
            tpot_p99_s=tpot_p99,
            queue_delay_mean_s=sum(record.queue_delay_s for record in finished) / len(finished),
            prefill_mean_s=sum(record.prefill_s for record in finished) / len(finished),
            latency_p50_s=latency_p50,
            latency_p95_s=latency_p95,
            latency_p99_s=latency_p99,
        )


@dataclass(frozen=True)
class WindowStats:
    """Per-interval serving metrics of one wall-clock window.

    Windows bucket requests by *arrival* time (a request arriving exactly
    on a boundary belongs to the later window), so a window's attainment
    answers "of the traffic that arrived in this interval, how much met
    its SLO?" -- the question a capacity planner asks of a diurnal day.

    ``ttft_attainment`` / ``tpot_attainment`` / ``goodput_fraction`` are
    fractions of the window's *arrivals* (an unserved request counts
    against its window); they are 1.0 for an empty window (vacuous SLO).
    """

    start_s: float
    end_s: float
    arrivals: int
    finished: int
    goodput_requests: int
    ttft_attained: int
    tpot_attained: int
    latency: LatencyStats

    @property
    def ttft_attainment(self) -> float:
        return self.ttft_attained / self.arrivals if self.arrivals else 1.0

    @property
    def tpot_attainment(self) -> float:
        return self.tpot_attained / self.arrivals if self.arrivals else 1.0

    @property
    def goodput_fraction(self) -> float:
        return self.goodput_requests / self.arrivals if self.arrivals else 1.0


def windowed_stats(records: Sequence[RequestRecord], window_s: float) -> tuple[WindowStats, ...]:
    """Bucket ``records`` into contiguous ``window_s``-wide arrival windows.

    Returns one :class:`WindowStats` per window from time 0 through the
    last arrival, *including* empty windows in between (a quiet interval
    is data, not a gap).  With every record inside one window, that
    window's :class:`LatencyStats` equal ``LatencyStats.from_records`` on
    the whole run.
    """
    if not (window_s > 0 and math.isfinite(window_s)):
        raise ValueError("window_s must be positive and finite")
    if not records:
        return ()
    buckets: dict[int, list[RequestRecord]] = {}
    for record in records:
        buckets.setdefault(int(record.arrival_s // window_s), []).append(record)
    windows = []
    for index in range(max(buckets) + 1):
        members = buckets.get(index, [])
        windows.append(
            WindowStats(
                start_s=index * window_s,
                end_s=(index + 1) * window_s,
                arrivals=len(members),
                finished=sum(1 for record in members if record.finished),
                goodput_requests=sum(1 for record in members if record.slo_ok),
                ttft_attained=sum(1 for record in members if record.ttft_ok),
                tpot_attained=sum(1 for record in members if record.tpot_ok),
                latency=LatencyStats.from_records(members),
            )
        )
    return tuple(windows)


@dataclass
class LifecycleTracker:
    """Collects :class:`RequestRecord` entries as the engine runs."""

    records: dict[int, RequestRecord] = field(default_factory=dict)

    def on_arrival(
        self,
        request_id: int,
        prompt_tokens: int,
        output_tokens: int,
        arrival_s: float,
        priority: int = 0,
        tier: str | None = None,
        ttft_deadline_s: float | None = None,
        tpot_deadline_s: float | None = None,
    ) -> RequestRecord:
        record = RequestRecord(
            request_id=request_id,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            arrival_s=arrival_s,
            priority=priority,
            tier=tier,
            ttft_deadline_s=ttft_deadline_s,
            tpot_deadline_s=tpot_deadline_s,
        )
        self.records[request_id] = record
        return record

    def on_admission(self, request_id: int, now_s: float) -> None:
        self.records[request_id].admitted_s = now_s

    def on_prefill(self, request_id: int, seconds: float) -> None:
        """Accumulate prefill work charged to a request (one or more chunks)."""
        self.records[request_id].prefill_s += seconds

    def on_tokens(
        self, request_id: int, count: int, step_end_s: float, step_seconds: float
    ) -> None:
        """Record ``count`` tokens generated in a stride ending at ``step_end_s``."""
        if count > 0:
            first_token_s = self.first_token_time(step_end_s, step_seconds, count)
            self.on_batch_tokens((request_id,), count, first_token_s)

    @staticmethod
    def first_token_time(stride_end_s: float, step_seconds: float, stride: int) -> float:
        """When a stride's first token completes: one decode step into it.

        A request's first token is stamped at this time, not at the end of
        its first stride, which pins TTFT even when ``step_stride > 1``.
        """
        return stride_end_s - step_seconds * (stride - 1)

    def on_batch_tokens(self, request_ids: Iterable[int], count: int, first_token_s: float) -> None:
        """Record ``count`` (> 0) tokens for each of ``request_ids``.

        A request with no token yet gets ``first_token_s`` (see
        :meth:`first_token_time`) as its first-token time.
        """
        records = self.records
        for request_id in request_ids:
            record = records[request_id]
            if record.generated == 0:
                record.first_token_s = first_token_s
            record.generated += count

    def on_preempt(self, request_id: int, now_s: float) -> None:
        """Record a page-out: the request leaves the batch and stalls."""
        record = self.records[request_id]
        record.preemptions += 1
        record.preempted_s = now_s

    def on_restore(self, request_id: int, now_s: float, recompute_tokens: int = 0) -> None:
        """Record a page-in: close the stall window opened by ``on_preempt``."""
        record = self.records[request_id]
        record.stall_s += now_s - record.preempted_s
        record.preempted_s = math.nan
        record.recompute_tokens += recompute_tokens

    def on_finish(self, request_id: int, now_s: float) -> None:
        self.records[request_id].finish_s = now_s

    def stats(self) -> LatencyStats:
        return LatencyStats.from_records(list(self.records.values()))
