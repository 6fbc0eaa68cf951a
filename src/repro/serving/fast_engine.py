"""Batch-stepping serving engine (event-point spans).

:class:`FastServingEngine` is :class:`~repro.serving.engine.ServingEngine`
with a higher :attr:`~repro.serving.engine.ServingEngine.span_limit`.  Both
run the same loop; ``engine.mode=scalar`` is that loop with spans capped at
one evaluation.  Between event points -- the next arrival crossing while
the batch has an open slot, the next completion, the next possible grow
failure, a blocking prefill becoming ready, or any chunked-prefill work --
batch membership is constant and every decoding request advances uniformly
by ``step_stride`` tokens per evaluation.  Over such a span:

* the per-evaluation latencies and PIM utilizations form a closed-form
  sequence on ``xpu-only`` and ``gpu`` (batch-plus-context-sum shaped) and
  on TCP single-stage ``pim-only`` and ``xpu-pim`` (per-request channel
  shares priced by the array kernel closed form), exposed as
  ``decode_span`` and evaluated in one call returning a ``(count, 2)``
  array;
* clock/busy accumulation, capacity sampling and batch statistics reduce to
  a tight loop over the precomputed latencies, adding one evaluation at a
  time in the same order a span of one would;
* per-request bookkeeping (KV grow, context/remaining counters, tracker
  stamps, completions) collapses to one update per request per span: one
  ``allocator.grow`` each, then the same ``_advance`` pass a single
  evaluation runs after its batch-wide ``grow_many``.

N requests times K decode steps therefore cost O(events) Python iterations
plus O(evaluations) float additions, instead of O(N * K) full Python
iterations.  Spans are *provably* uneventful before they run: completions
bound the span length, arrival/ready crossings truncate it on the exact
evaluation a span of one would observe them, and a chunked-allocator
pre-check (monotone committed-chunk demand vs. total chunks) guarantees no
``CapacityExceeded`` inside the span.  Any iteration that cannot be proven
uneventful -- pending chunked prefill, a possible grow failure, a reduced
final stride -- takes the single-evaluation body, so preemption storms and
prefill interleaving follow the scalar arithmetic verbatim.

Arrival timestamps are opaque to the span machinery: the next pending
arrival is an event point wherever it falls, so traces stamped by any
arrival process (diurnal, burst, warped replay) and the fleet timeline's
failure re-dispatches (victims re-arriving mid-run at the failure time)
need no special handling -- spans simply truncate at those instants.
The one exception is a batch at ``max_batch_size``: admission and
restores both stop at the cap, so an arrival cannot join before a
completion frees a slot, and a completion is always a span's final
evaluation.  Such a span runs through arrivals; a span of one would have
admitted nothing at them either.

Parity between the two modes is exact: ``tests/serving/test_fast_engine.py``
requires equal ``RunReport`` output on every shipped example spec and on
randomized admission x preemption x prefill x prefix-cache configurations.
The independent oracle for the loop itself is the legacy copy in
``tests/serving/test_parity.py``.  Systems without ``decode_span``
(HFP-packed or multi-stage PIM pipelines, whose greedy placement is
order-dependent) step one evaluation per iteration in both modes, so fast
mode runs exactly the iterations scalar mode runs; their ``decode_step``
builds attention programs, which dwarfs the per-iteration bookkeeping.
Span-priced evaluations add no cycle breakdown, so energy needs
``engine.mode=scalar``: :func:`~repro.analysis.energy_report.serving_energy`
rejects a PIM run with span-priced evaluations.
"""

from __future__ import annotations

from repro.serving.engine import EngineResult, ServingEngine
from repro.workloads.traces import RequestTrace


class FastServingEngine(ServingEngine):
    """:class:`ServingEngine` that advances up to 4096 evaluations per span.

    The cap bounds the latency work wasted when a crossing truncates a span
    and the cost of the capacity pre-check.
    """

    span_limit = 4096

    def run(self, trace: RequestTrace, system_name: str = "") -> EngineResult:
        # Defined on the class so tools that wrap each class's own ``run``
        # (the perfbench layer trace) see fast-mode runs too.
        return super().run(trace, system_name)
