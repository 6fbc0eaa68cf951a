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
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.pim.simulator import CycleBreakdown, ZERO_BREAKDOWN


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


def tcp_single_stage_span(
    contexts: Sequence[int],
    stride: int,
    count: int,
    num_channels: int,
    share_cycles: Callable[[NDArray[np.int64]], NDArray[np.float64]],
    stage_cost: StageTime,
) -> NDArray[np.float64]:
    """Seconds and PIM utilization of ``count`` uniform single-stage TCP steps.

    Row ``j`` of the ``(count, 2)`` result equals ``pipeline_decode_step``'s
    ``(seconds, pim_utilization)`` for ``[c + j * stride for c in
    contexts]`` with one stage, bit for bit.  Under TCP a request's
    attention cost depends only on its per-channel token share, so the
    (requests x span) grid of shares is priced in one ``share_cycles`` call.
    Rows of that grid follow the stable descending sort
    :func:`split_microbatches` applies (a uniform shift preserves it), and
    requests are folded in that order with ``cumsum``, which adds
    sequentially like the scalar path.  The micro-batch candidates are
    ``{1, n}``: the whole batch as one micro-batch, or one per request.
    """
    active = sorted((context for context in contexts if context > 0), reverse=True)
    if not active:
        return np.zeros((count, 2), dtype=np.float64)
    # Ceiling division: offsets carry the ``num_channels - 1`` round-up.
    offsets = np.arange(
        num_channels - 1, num_channels - 1 + count * stride, stride, dtype=np.int64
    )
    shares = (np.array(active, dtype=np.int64)[:, None] + offsets) // num_channels
    seconds, utilization, _ = _tcp_candidates(share_cycles(shares), stage_cost)
    return np.stack((seconds, utilization), axis=1)


def _tcp_candidates(
    per_request: NDArray[np.float64], stage_cost: StageTime
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.bool_]]:
    """Seconds, utilization and split-wins columns of single-stage TCP steps.

    ``per_request`` holds each request's attention cycles (rows, in
    descending context order) at each step (columns).  The first two
    results are :func:`tcp_single_stage_span`'s columns; the third marks
    the steps where one micro-batch per request beat the whole batch.
    """
    batch_size = len(per_request)
    # TCP keeps every channel busy, so the attention utilization is 1.0.
    # (``module_attention_time`` reports 0.0 at zero cycles, which weighs
    # nothing in the stage utilization, so 1.0 prices those steps alike.)
    seconds, utilization = stage_cost(np.cumsum(per_request, axis=0)[-1], 1.0, batch_size)
    # The busy-weighted mean of one micro-batch, (t * u) / t, need not round
    # back to u.
    utilization = np.minimum(1.0, seconds * utilization / seconds)
    better = np.zeros(seconds.shape, dtype=np.bool_)
    if batch_size > 1:
        times, utilizations = stage_cost(per_request, 1.0, 1)
        # A sequential sum of non-negative floats is never below an addend,
        # so the pipeline's max(sum, stages * max) is the sum at one stage.
        split = np.cumsum(times, axis=0)[-1]
        split_utilization = np.minimum(1.0, np.cumsum(times * utilizations, axis=0)[-1] / split)
        # ``pipeline_decode_step`` keeps the whole batch on a tie.
        better = split < seconds
        seconds = np.where(better, split, seconds)
        utilization = np.where(better, split_utilization, utilization)
    return seconds, utilization, better


def tcp_single_stage_step(
    contexts: Sequence[int],
    num_channels: int,
    stage_cost: StageTime,
    share_breakdowns: Callable[[list[int]], list[CycleBreakdown]],
    layers: int,
    fc_breakdown: Callable[[int], CycleBreakdown] | None = None,
) -> PipelineStep:
    """``pipeline_decode_step`` at one stage under TCP, each unit of work priced once.

    ``share_breakdowns`` maps per-channel token shares to each request's
    per-channel attention term.  Their totals are the span's
    ``share_cycles`` values, so the seconds and utilization are row 0 of
    :func:`tcp_single_stage_span` for ``contexts``.  The cycle breakdowns
    fold those terms and the module FC breakdown of a micro-batch size
    (``fc_breakdown``; none when FC runs off PIM) in the winning
    candidate's order and association, as :func:`_evaluate` over the
    system's stage cost does: a module's attention breakdown is its
    per-channel sum scaled by ``num_channels``, and each micro-batch's
    stage breakdowns are scaled by ``layers``.
    """
    active = sorted((context for context in contexts if context > 0), reverse=True)
    if not active:
        return PipelineStep(
            seconds=0.0,
            pim_utilization=0.0,
            attention_breakdown=ZERO_BREAKDOWN,
            fc_breakdown=ZERO_BREAKDOWN,
            num_microbatches=0,
        )
    terms = share_breakdowns([-(-context // num_channels) for context in active])
    per_request = np.array([[term.total] for term in terms], dtype=np.float64)
    seconds, utilization, split = _tcp_candidates(per_request, stage_cost)
    attention = fc = ZERO_BREAKDOWN
    if split[0]:
        fc_one = fc_breakdown(1).scaled(layers) if fc_breakdown else ZERO_BREAKDOWN
        for term in terms:
            attention = attention + term.scaled(num_channels).scaled(layers)
            fc = fc + fc_one
    else:
        for term in terms:
            attention = attention + term
        attention = attention.scaled(num_channels).scaled(layers)
        if fc_breakdown:
            fc = fc_breakdown(len(active)).scaled(layers)
    return PipelineStep(
        seconds=float(seconds[0]),
        pim_utilization=float(utilization[0]),
        attention_breakdown=attention,
        fc_breakdown=fc,
        num_microbatches=len(active) if split[0] else 1,
    )
