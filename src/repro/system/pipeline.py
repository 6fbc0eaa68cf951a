"""Pipeline-parallel decode-step timing shared by the system models.

One decode step gives every active request one new token.  The batch is
split into micro-batches that circulate through the pipeline stages; in
steady state the step period is bounded below both by the bottleneck
stage's total work (it must serve every micro-batch once per step) and by
the pipeline depth times the largest micro-batch (a micro-batch cannot
re-enter the pipeline before its previous token has left it):

    T_step = max( sum_i t_i,  stages * max_i t_i )

Fewer, larger micro-batches amortise per-micro-batch overheads (weight
streaming on an xPU); more, smaller micro-batches keep the pipeline free of
bubbles.  The runtime picks whichever granularity yields the shorter step,
mirroring the micro-batch tuning real serving systems perform.

Under TCP on a single stage the scan is closed form: the candidates are
the whole batch or one micro-batch per request, and every per-request
quantity depends only on the request's per-channel token share, so it is
read from the system's share tables (:class:`~repro.system.layers.TCPSharePrices`).
:func:`tcp_single_stage_step` and :func:`tcp_single_stage_span` price a
step (with its cycle breakdowns) and a uniform span that way, equal to
:func:`pipeline_decode_step` over the system's stage cost bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add

import numpy as np
from numpy.typing import NDArray

from repro.pim.simulator import CycleBreakdown, ZERO_BREAKDOWN, breakdown_fields
from repro.serving.interfaces import StepResult
from repro.system.layers import ShareTables, TCPSharePrices


@dataclass(frozen=True)
class StageCost:
    """Cost of one pipeline stage processing one micro-batch."""

    seconds: float
    pim_utilization: float
    attention_breakdown: CycleBreakdown = ZERO_BREAKDOWN
    fc_breakdown: CycleBreakdown = ZERO_BREAKDOWN


@dataclass(frozen=True)
class PipelineStep:
    """Timing of one decode step across the whole pipeline."""

    seconds: float
    pim_utilization: float
    attention_breakdown: CycleBreakdown
    fc_breakdown: CycleBreakdown
    num_microbatches: int


def split_microbatches(contexts: Sequence[int], count: int) -> list[list[int]]:
    """Split a batch into ``count`` micro-batches, balancing token totals."""
    count = max(1, min(count, len(contexts)))
    buckets: list[list[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for context in sorted(contexts, reverse=True):
        target = loads.index(min(loads))
        buckets[target].append(context)
        loads[target] += context
    return [bucket for bucket in buckets if bucket]


def _evaluate(
    microbatches: list[list[int]],
    stages: int,
    stage_cost: Callable[[Sequence[int]], StageCost],
) -> PipelineStep:
    costs = [stage_cost(microbatch) for microbatch in microbatches]
    times = [cost.seconds for cost in costs]
    total_work = sum(times)
    step_seconds = max(total_work, stages * max(times))

    attention_total = ZERO_BREAKDOWN
    fc_total = ZERO_BREAKDOWN
    busy_weighted_utilization = 0.0
    for cost in costs:
        attention_total = attention_total + cost.attention_breakdown
        fc_total = fc_total + cost.fc_breakdown
        busy_weighted_utilization += cost.seconds * cost.pim_utilization
    utilization = busy_weighted_utilization / step_seconds if step_seconds > 0 else 0.0

    return PipelineStep(
        seconds=step_seconds,
        pim_utilization=min(1.0, utilization),
        attention_breakdown=attention_total,
        fc_breakdown=fc_total,
        num_microbatches=len(microbatches),
    )


def pipeline_decode_step(
    contexts: Sequence[int],
    stages: int,
    stage_cost: Callable[[Sequence[int]], StageCost],
) -> PipelineStep:
    """Best-achievable decode-step timing over micro-batch granularities.

    Args:
        contexts: Context length of every active request.
        stages: Pipeline depth (PP degree).
        stage_cost: Callback returning the cost of one stage processing one
            micro-batch (the same layers run in every stage, so one
            representative stage suffices).

    Returns:
        The :class:`PipelineStep` of the better micro-batch granularity.
    """
    active = [context for context in contexts if context > 0]
    if not active:
        return PipelineStep(
            seconds=0.0,
            pim_utilization=0.0,
            attention_breakdown=ZERO_BREAKDOWN,
            fc_breakdown=ZERO_BREAKDOWN,
            num_microbatches=0,
        )
    if stages < 1:
        raise ValueError("stages must be >= 1")

    candidate_counts = sorted({min(stages, len(active)), len(active)})
    best: PipelineStep | None = None
    for count in candidate_counts:
        step = _evaluate(split_microbatches(active, count), stages, stage_cost)
        if best is None or step.seconds < best.seconds:
            best = step
    assert best is not None
    return best


#: Per-layer cycles of one micro-batch: a float, or an array of them over
#: the steps of a TCP span.
Cycles = float | NDArray[np.float64]

#: A system's stage arithmetic, the one its ``_stage_cost`` also uses:
#: (per-layer attention cycles of a micro-batch, attention channel
#: utilization, micro-batch size) -> (stage seconds, stage PIM
#: utilization), elementwise over arrays of attention cycles.
StageTime = Callable[[Cycles, float, int], tuple[Cycles, Cycles]]


#: :func:`tcp_single_stage_span` prices a span of at most this many
#: evaluations row by row in pure Python, and a longer one with one numpy
#: gather and ``cumsum`` per table.  Each Python row costs a scalar
#: ``stage_time`` call; the numpy path costs about as much as this many
#: rows whatever the span's length (measured on pim-only and xpu-pim at
#: batches up to 16).
SPAN_PYTHON_EVALS = 8


def tcp_single_stage_span(
    contexts: Sequence[int],
    stride: int,
    count: int,
    prices: TCPSharePrices,
) -> NDArray[np.float64]:
    """Seconds and PIM utilization of ``count`` uniform single-stage TCP steps.

    Row ``j`` of the ``(count, 2)`` result equals ``pipeline_decode_step``'s
    ``(seconds, pim_utilization)`` for ``[c + j * stride for c in
    contexts]`` with one stage, bit for bit.  Under TCP a request's cost
    depends only on its per-channel token share, so every per-request
    quantity is read from the system's share tables (``prices``).
    Requests follow the stable descending sort :func:`split_microbatches`
    applies (a uniform shift preserves it).  A span of at most
    :data:`SPAN_PYTHON_EVALS` evaluations is priced row by row with
    :func:`tcp_single_stage_step`'s arithmetic; a longer one gathers each
    table over the (requests x span) grid of shares and folds it with
    ``cumsum``, which adds sequentially like the scalar path.
    """
    active = sorted((context for context in contexts if context > 0), reverse=True)
    if not active:
        return np.zeros((count, 2), dtype=np.float64)
    num_channels = prices.num_channels
    # Ceiling division: offsets carry the ``num_channels - 1`` round-up.
    offsets = range(num_channels - 1, num_channels - 1 + count * stride, stride)
    if count <= SPAN_PYTHON_EVALS:
        rows = [[(context + offset) // num_channels for context in active] for offset in offsets]
        tables = prices.tables([share for row in rows for share in row])
        return np.array(
            [_tcp_candidates(tables, prices.stage_time, row)[:2] for row in rows],
            dtype=np.float64,
        )
    grid = np.array(active, dtype=np.int64)[:, None] + np.array(offsets, dtype=np.int64)
    attention, times, busy = prices.grid(grid // num_channels)
    # TCP keeps every channel busy, so the attention utilization is 1.0
    # (see :func:`_tcp_candidates`).
    seconds, utilization = prices.stage_time(np.cumsum(attention, axis=0)[-1], 1.0, len(active))
    utilization = np.minimum(1.0, seconds * utilization / seconds)
    if len(active) > 1:
        split = np.cumsum(times, axis=0)[-1]
        split_utilization = np.minimum(1.0, np.cumsum(busy, axis=0)[-1] / split)
        # ``pipeline_decode_step`` keeps the whole batch on a tie.
        better = split < seconds
        seconds = np.where(better, split, seconds)
        utilization = np.where(better, split_utilization, utilization)
    return np.stack((seconds, utilization), axis=1)


def _tcp_candidates(
    tables: ShareTables, stage_time: StageTime, shares: list[int]
) -> tuple[float, float, bool]:
    """Seconds, utilization and split-wins of one single-stage TCP step.

    ``shares`` holds each request's per-channel share, in descending
    context order, and ``tables`` its prices (``TCPSharePrices.tables``).
    The micro-batch candidates are ``{1, n}``: the whole batch as one
    micro-batch, priced by one ``stage_time`` call over its folded
    attention totals, or one micro-batch per request, whose stage seconds
    and busy products are folded from the batch-1 tables.  Every fold adds
    left to right from the first element, as ``np.cumsum`` does (``sum``
    may compensate, so it is not used).
    """
    attention, times, busy = tables
    first = shares[0]
    total = attention[first]
    split = times[first]
    for share in shares[1:]:
        total += attention[share]
        split += times[share]
    # TCP keeps every channel busy, so the attention utilization is 1.0.
    # (``module_attention_time`` reports 0.0 at zero cycles, which weighs
    # nothing in the stage utilization, so 1.0 prices those steps alike.)
    seconds, utilization = stage_time(total, 1.0, len(shares))
    # A sequential sum of non-negative floats is never below an addend, so
    # the pipeline's max(sum, stages * max) is the sum at one stage, and
    # ``pipeline_decode_step`` keeps the whole batch on a tie.
    if len(shares) > 1 and split < seconds:
        weighted = busy[first]
        for share in shares[1:]:
            weighted += busy[share]
        return split, min(1.0, weighted / split), True
    # The busy-weighted mean of one micro-batch, (t * u) / t, need not round
    # back to u.
    return float(seconds), float(min(1.0, seconds * utilization / seconds)), False


def tcp_single_stage_step(
    contexts: Sequence[int],
    prices: TCPSharePrices,
    layers: int,
    tensor_parallel: int,
    fc_breakdown: Callable[[int], CycleBreakdown] | None = None,
) -> StepResult:
    """A TCP single-stage system's decode step, from its share tables.

    Equals ``pipeline_decode_step`` at one stage over the system's stage
    cost, with both breakdowns scaled by the ``tensor_parallel`` modules
    of the stage, on every field.  The seconds and utilization are row 0
    of :func:`tcp_single_stage_span` for ``contexts``, priced by
    :func:`_tcp_candidates`.  The cycle breakdowns fold each request's
    per-channel attention term (``prices.terms``) and the module FC
    breakdown of a micro-batch size (``fc_breakdown``; none when FC runs
    off PIM) field by field, in the winning candidate's order and
    association, as :func:`_evaluate` does: a module's attention breakdown
    is its per-channel sum scaled by ``num_channels``, each micro-batch's
    stage breakdowns are scaled by ``layers``, and their sum by
    ``tensor_parallel``.
    """
    num_channels = prices.num_channels
    active = sorted((context for context in contexts if context > 0), reverse=True)
    if not active:
        return StepResult(seconds=0.0, pim_utilization=0.0)
    shares = [-(-context // num_channels) for context in active]
    seconds, utilization, split = _tcp_candidates(prices.tables(shares), prices.stage_time, shares)
    columns = zip(*prices.terms(shares), strict=True)
    fc = ZERO_BREAKDOWN
    if split:
        # One micro-batch per request: each term is scaled to its
        # micro-batch's stage breakdown, and those are summed.
        stage_sums = [
            reduce(add, [term * num_channels * layers for term in column], 0.0)
            for column in columns
        ]
        if fc_breakdown:
            fc_one = [term * layers for term in breakdown_fields(fc_breakdown(1))]
            fc = CycleBreakdown(
                *(reduce(add, repeat(term, len(active)), 0.0) * tensor_parallel for term in fc_one)
            )
    else:
        stage_sums = [reduce(add, column, 0.0) * num_channels * layers for column in columns]
        if fc_breakdown:
            fc_whole = breakdown_fields(fc_breakdown(len(active)))
            fc = CycleBreakdown(*(term * layers * tensor_parallel for term in fc_whole))
    attention = CycleBreakdown(*(total * tensor_parallel for total in stage_sums))
    return StepResult(
        seconds=seconds,
        pim_utilization=utilization,
        attention_breakdown=attention,
        fc_breakdown=fc,
    )
