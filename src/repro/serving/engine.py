"""Event-driven decode serving engine.

The engine replaces the original monolithic decode loop with three
decoupled layers:

1. **Admission** -- an :class:`~repro.serving.admission.AdmissionPolicy`
   ranks arrived-but-waiting requests; the engine admits everything the
   allocator accepts through the unified ``can_admit``/``reserve``/
   ``release`` protocol (no ``isinstance`` special-casing).
2. **Scheduling** -- the engine advances a simulation clock over decode
   strides, idling forward to the next arrival when the system drains, so
   open-loop (Poisson / replayed) traces are served faithfully.
3. **Metrics** -- a :class:`~repro.serving.lifecycle.LifecycleTracker`
   stamps every request's arrival, admission, first token and completion,
   yielding TTFT / TPOT and latency percentiles on top of the legacy
   throughput counters.

An optional :class:`~repro.serving.prefill.PrefillConfig` charges
context-length-dependent prompt-processing latency at admission, either
blocking (the request decodes only after its whole prefill elapses) or
chunked (prefill interleaves with decode steps on the same hardware), so
TTFT reflects prompt length instead of just queueing plus one decode step.

An optional :class:`~repro.serving.prefix_cache.PrefixCache` adds
per-replica prefix/KV reuse for multi-turn sessions: requests carrying a
session id are charged prefill (and recompute-mode restore work) only for
the suffix their session's cached prefix does not cover, and each
finished turn's full context is retained for the next turn.

An optional :class:`~repro.serving.preemption.PreemptionConfig` flips the
engine from the admit-to-completion contract to the incremental
:class:`~repro.serving.interfaces.KVLifecycle` contract: admission
reserves only the prompt, the KV cache grows chunk by chunk, and when a
grow raises :class:`~repro.memory.lifecycle.CapacityExceeded` the policy
picks a victim to page out (``evict-lru`` / ``evict-largest`` /
``evict-youngest``).  Victims re-queue through admission and are restored
with their saved state; swap or recompute costs are charged to the clock
and surfaced as preemption metrics on :class:`EngineResult`.

Between event points the loop may advance a *span* of several uneventful
decode evaluations in one iteration, up to the class-level
:attr:`ServingEngine.span_limit`, on systems with a closed-form
``decode_span``.  The limit is one here, so every iteration prices a
single evaluation; ``FastServingEngine`` raises it (see
:mod:`repro.serving.fast_engine` for why spans leave every result exact).

Every iteration runs one body.  It prices its evaluations -- a span with
one ``decode_span`` call, a single evaluation with ``decode_step``, whose
cycle breakdowns it also sums -- into per-evaluation seconds and PIM
utilizations, and one loop over them advances the clock and busy time,
samples utilization and capacity, cuts a span at an arrival or
prefill-ready crossing, tallies tokens and stamps first tokens.  Only the
growth differs.  A span grows each request with ``allocator.grow``, which
the span's planning guarantees cannot raise.  A single evaluation grows
its whole batch with one all-or-nothing ``allocator.grow_many``; when that
raises ``CapacityExceeded`` the engine grows request by request instead,
evicting victims as needed and releasing finished requests before later
growers.  Success of the batch call implies no single grow could have
failed, so the two paths differ only in the physical chunk ids they hand
out, which no result reads.  Grown requests are credited in one pass
(``_advance``).

A trace whose requests all arrive at time 0 and fit the context window
(``prompt + output <= max_context_tokens``) served under FCFS reproduces
the legacy loop's arithmetic exactly (same admissions, same strides, same
floating-point accumulation order), which `tests/serving/test_parity.py`
pins to 1e-9.  One deliberate divergence: a request whose output would
outgrow the window is clamped to it -- the legacy loop kept generating
past its own reservation, which could exhaust the allocator mid-decode.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar

from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.lifecycle import CapacityExceeded, PreemptedState
from repro.memory.static_alloc import AllocationError
from repro.pim.simulator import ZERO_BREAKDOWN, CycleBreakdown, breakdown_fields
from repro.serving.admission import AdmissionCandidate, AdmissionPolicy, FCFSAdmission
from repro.serving.interfaces import (
    DecodeSystem,
    KVLifecycle,
    allocator_for,
    clamp_to_window,
)
from repro.serving.lifecycle import LatencyStats, LifecycleTracker, RequestRecord
from repro.serving.preemption import PreemptionCandidate, PreemptionConfig
from repro.serving.prefill import PrefillConfig
from repro.serving.prefix_cache import PrefixCache
from repro.workloads.traces import RequestTrace

#: Floor of the adaptive span-length hint.
_MIN_HINT = 16


@dataclass
class EngineResult:
    """Aggregate metrics of one serving run, with lifecycle latency statistics.

    ``total_seconds`` (and therefore ``throughput_tokens_per_s``) counts
    busy decode time only, matching the legacy loop; ``makespan_s`` adds
    the idle gaps an open-loop arrival process introduces.

    ``attention_breakdown`` and ``fc_breakdown`` sum the cycle breakdowns
    of evaluations priced by ``decode_step``; evaluations priced by a
    system's ``decode_span`` (xpu-only, gpu, TCP single-stage pim-only and
    xpu-pim in fast mode) add zero and are counted in
    ``span_evaluations``.  Systems without ``decode_span`` price every
    evaluation with ``decode_step`` in both modes.  Energy accounting
    therefore needs ``engine.mode=scalar`` on PIM systems, which
    :func:`~repro.analysis.energy_report.serving_energy` enforces.
    """

    system_name: str
    dataset: str
    total_output_tokens: int
    total_seconds: float
    steps: int
    average_batch_size: float
    peak_batch_size: int
    average_pim_utilization: float
    average_capacity_utilization: float
    attention_breakdown: CycleBreakdown = ZERO_BREAKDOWN
    fc_breakdown: CycleBreakdown = ZERO_BREAKDOWN
    total_pim_channels: int = 0
    requests_served: int = 0
    metadata: dict = field(default_factory=dict)
    makespan_s: float = 0.0
    idle_seconds: float = 0.0
    admission_policy: str = "fcfs"
    latency: LatencyStats = field(default_factory=LatencyStats)
    request_records: tuple[RequestRecord, ...] = ()
    requests_dropped: int = 0
    prefill_mode: str = "none"
    prefill_seconds_total: float = 0.0
    preemption_policy: str = "none"
    #: Victim evictions performed to resolve mid-decode capacity pressure.
    preemptions: int = 0
    #: Clock charged to page-out/page-in work (swap or recompute).
    preemption_overhead_s: float = 0.0
    #: Tokens re-prefilled by recompute-mode restores.
    recompute_tokens: int = 0
    #: Mean paged-out-to-restored stall per preemption (requeue delay).
    requeue_delay_mean_s: float = 0.0
    #: Whether a prefix cache was attached for this run.
    prefix_cache_enabled: bool = False
    #: Prefix-cache lookups that found a reusable session prefix.
    prefix_hits: int = 0
    #: Prefix-cache lookups that found nothing for the session.
    prefix_misses: int = 0
    #: Prompt tokens discounted from prefill/restore work by cache hits.
    prefix_hit_tokens: int = 0
    #: Session prefixes evicted by the cache's LRU capacity policy.
    prefix_evictions: int = 0
    #: Decode evaluations priced by ``decode_span`` (zero breakdowns);
    #: not part of the report, so fast and scalar reports stay equal.
    span_evaluations: int = 0

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.total_output_tokens / self.total_seconds

    @property
    def average_step_seconds(self) -> float:
        if self.steps == 0:
            return 0.0
        return self.total_seconds / self.steps

    @property
    def prefix_hit_rate(self) -> float:
        """Hit fraction of this run's prefix-cache lookups (0 when unused)."""
        lookups = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / lookups if lookups else 0.0

    @property
    def ttft_mean_s(self) -> float:
        return self.latency.ttft_mean_s

    @property
    def tpot_mean_s(self) -> float:
        return self.latency.tpot_mean_s

    @property
    def latency_p50_s(self) -> float:
        return self.latency.latency_p50_s

    @property
    def latency_p95_s(self) -> float:
        return self.latency.latency_p95_s

    @property
    def latency_p99_s(self) -> float:
        return self.latency.latency_p99_s


def _accumulate(sums: list[float], breakdown: CycleBreakdown, stride: int) -> list[float]:
    """``sums`` plus ``breakdown.scaled(stride)``, field by field.

    Each field adds ``term * stride`` exactly as ``CycleBreakdown.__add__``
    of the scaled breakdown would, without building either breakdown.
    """
    return [total + term * stride for total, term in zip(sums, breakdown_fields(breakdown))]


@dataclass(slots=True)
class _ActiveRequest:
    request_id: int
    context: int
    remaining: int
    #: Blocking prefill: earliest clock at which the request may decode.
    ready_s: float = 0.0
    #: Chunked prefill: prompt tokens that must be prefilled before decode.
    prefill_total: int = 0
    prefill_done: int = 0
    #: ``cumulative_seconds(prefill_done)`` of the prefill model, kept so
    #: each chunk costs one ``cumulative_seconds`` call (0 at 0 tokens).
    prefill_done_s: float = 0.0
    #: Clock of the most recent admission or restore (preemption policies).
    admitted_s: float = 0.0
    #: Clock of the most recent decode progress (LRU preemption).
    last_step_s: float = 0.0
    #: Conversation id for prefix-cache lookups (``None`` = no session).
    session: int | None = None
    #: Scheduling priority (priority-aware preemption policies).
    priority: int = 0
    #: Times this request has been evicted (anti-starvation guard).
    preempt_count: int = 0

    def decode_ready(self, clock: float) -> bool:
        return self.ready_s <= clock and self.prefill_done >= self.prefill_total


@dataclass
class _PreemptedRequest:
    """A paged-out request waiting in the restore queue."""

    entry: _ActiveRequest
    state: PreemptedState


@dataclass
class ServingEngine:
    """Serves a request trace on any :class:`DecodeSystem`.

    Attributes:
        system: System model that prices each decode step.
        admission: Policy ranking waiting requests (default FCFS).
        max_batch_size: Optional hard cap on concurrent requests.
        step_stride: Decode steps advanced per latency evaluation; contexts
            change slowly, so strides of 4-16 keep large sweeps cheap with
            negligible error.
        prefill: Optional prefill cost model and charging discipline (see
            :mod:`repro.serving.prefill`).  ``None`` keeps the legacy
            behaviour of free prompt processing, which the parity tests pin.
        preemption: Optional preemption policy and cost model (see
            :mod:`repro.serving.preemption`).  ``None`` -- or a config
            whose policy is ``"none"`` -- keeps the admit-to-completion
            contract: the allocator commits each request's *final* context
            at admission and growth never fails, which the parity tests
            pin.  An active config flips the engine to the incremental
            :class:`~repro.serving.interfaces.KVLifecycle` contract:
            admission checks only the prompt, requests grow chunk by
            chunk, and mid-decode capacity pressure is resolved by paging
            victims out and re-queueing them through admission.
        prefix_cache: Optional per-replica prefix/KV reuse store (see
            :mod:`repro.serving.prefix_cache`).  Requests carrying a
            session id reuse the session's cached prefix: blocking and
            chunked prefill charge only the uncached suffix, and
            recompute-mode restores re-prefill only what the cache does
            not hold.  ``None`` (the default) keeps the no-reuse
            arithmetic the parity tests pin.
    """

    system: DecodeSystem
    admission: AdmissionPolicy = field(default_factory=FCFSAdmission)
    max_batch_size: int | None = None
    step_stride: int = 1
    prefill: PrefillConfig | None = None
    preemption: PreemptionConfig | None = None
    prefix_cache: PrefixCache | None = None
    #: Finished-prefill KV receipts by request id (disaggregated decode
    #: pools).  A request found here enters via ``allocator.restore`` --
    #: the decode half of the preempt-on-prefill-replica handoff -- instead
    #: of a fresh ``reserve``; admission gating is unchanged, so colocated
    #: runs (``None``) are untouched.
    kv_handoff: dict[int, PreemptedState] | None = None
    #: Most decode evaluations ``run`` may advance in one uneventful span.
    #: One makes every iteration a single evaluation (``engine.mode=scalar``);
    #: :class:`~repro.serving.fast_engine.FastServingEngine` raises it.
    span_limit: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.step_stride < 1:
            raise ValueError("step_stride must be >= 1")
        if self.max_batch_size is not None and self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")

    @property
    def lifecycle_admission(self) -> bool:
        """Whether admission follows the incremental lifecycle contract.

        True when an active preemption policy is attached: admission then
        reserves only a request's *current* context instead of its final
        one (the router's shadow allocators mirror the same rule).
        """
        return self.preemption is not None and self.preemption.active

    # -- helpers -----------------------------------------------------------

    def _candidates(self, trace: RequestTrace) -> deque[AdmissionCandidate]:
        """Clamp every request to the serving window, ordered by arrival.

        The sort is stable on arrival time only, so simultaneous arrivals
        keep their trace order -- which is what the legacy loop used and
        what the parity guarantee depends on.
        """
        window = self.system.max_context_tokens
        candidates = []
        for request in trace.requests:
            prompt, final = clamp_to_window(request, window)
            candidates.append(
                AdmissionCandidate(request=request, prompt_tokens=prompt, final_tokens=final)
            )
        candidates.sort(key=lambda candidate: candidate.arrival_s)
        return deque(candidates)

    def _restore(
        self,
        preempted: deque[_PreemptedRequest],
        active: dict[int, _ActiveRequest],
        allocator: KVLifecycle,
        tracker: LifecycleTracker,
        clock: float,
    ) -> float:
        """Restore paged-out requests in preemption order; returns clock charge.

        Restores run before fresh admissions each round: a preempted
        request has already consumed decode (and possibly prefill) work,
        so letting it finish wastes the least capacity.  The queue is
        FCFS on preemption time, bounding any one request's stall.

        Recompute-mode restores consult the prefix cache (the session's
        retained prefix needs no re-prefill) and, when chunked prefill is
        configured, route the remaining recompute through the chunked
        path -- the recomputed tokens then share decode hardware chunk by
        chunk exactly like admission-time prefill, instead of being
        charged as an up-front lump.  Swap-mode restores page the full KV
        back regardless and stay lump-charged.
        """
        overhead_s = 0.0
        assert self.preemption is not None
        cost = self.preemption.cost
        prefill_model = self.prefill.model if self.prefill is not None else None
        chunked = self.prefill is not None and self.prefill.chunk_tokens is not None
        while preempted:
            if self.max_batch_size is not None and len(active) >= self.max_batch_size:
                break
            head = preempted[0]
            if not allocator.can_admit(head.state.tokens):
                break
            preempted.popleft()
            allocator.restore(head.state.request_id, head.state)
            entry = head.entry
            cached = 0
            if (
                cost.mode == "recompute"
                and self.prefix_cache is not None
                and entry.session is not None
            ):
                cached = self.prefix_cache.lookup(entry.session, head.state.tokens)
            if cost.mode == "recompute" and chunked:
                assert prefill_model is not None
                entry.prefill_total = head.state.tokens
                entry.prefill_done = cached
                entry.prefill_done_s = prefill_model.cumulative_seconds(cached) if cached else 0.0
            else:
                overhead_s += cost.restore_seconds(
                    head.state, prefill_model, cached_tokens=cached
                )
            tracker.on_restore(
                head.state.request_id,
                clock,
                cost.restore_recompute_tokens(head.state, cached_tokens=cached),
            )
            entry.admitted_s = clock
            entry.last_step_s = clock
            active[entry.request_id] = entry
        return overhead_s

    def _admit(
        self,
        arrived: deque[AdmissionCandidate],
        active: dict[int, _ActiveRequest],
        allocator: KVLifecycle,
        tracker: LifecycleTracker,
        clock: float,
        preempted: deque[_PreemptedRequest] | None = None,
    ) -> tuple[int, float]:
        """Run one admission round.

        Returns the number of requests admitted and the clock charge of
        any restores performed (zero under the legacy contract).
        """
        lifecycle = self.lifecycle_admission
        overhead_s = 0.0
        if lifecycle and preempted:
            overhead_s = self._restore(preempted, active, allocator, tracker, clock)
        admitted: set[int] = set()
        ordered = self.admission.order(arrived)
        for candidate in ordered:
            if self.max_batch_size is not None and len(active) >= self.max_batch_size:
                break
            if lifecycle:
                # Incremental contract: admit against the prompt only, but
                # never admit work whose final context exceeds *total*
                # capacity -- it would inevitably die mid-decode with no
                # victim able to save it.
                could_ever = allocator.could_ever_fit(candidate.final_tokens)
                fits = could_ever and allocator.can_admit(candidate.prompt_tokens)
            else:
                fits = allocator.can_admit(candidate.final_tokens)
            if fits:
                handoff = (
                    None
                    if self.kv_handoff is None
                    else self.kv_handoff.get(candidate.request_id)
                )
                if handoff is not None:
                    # Disaggregated decode entry: the KV already exists (it
                    # was prefilled elsewhere and preempted off that
                    # replica), so re-admit it instead of reserving fresh
                    # space.  The receipt carries the same tokens/commit the
                    # reserve below would make, so capacity accounting is
                    # identical to colocated admission.
                    allocator.restore(candidate.request_id, handoff)
                elif lifecycle:
                    allocator.reserve(candidate.request_id, candidate.prompt_tokens)
                else:
                    allocator.reserve(
                        candidate.request_id, candidate.prompt_tokens, candidate.final_tokens
                    )
                entry = _ActiveRequest(
                    request_id=candidate.request_id,
                    context=candidate.prompt_tokens,
                    remaining=candidate.decode_tokens,
                    admitted_s=clock,
                    last_step_s=clock,
                    session=candidate.request.session,
                    priority=candidate.priority,
                )
                cached = 0
                if (
                    self.prefix_cache is not None
                    and entry.session is not None
                    and self.prefill is not None
                ):
                    # Prefix reuse: the session's retained KV covers the
                    # first `cached` prompt tokens, so only the uncached
                    # suffix needs prefill work.  Without a prefill model
                    # admission has no cost to discount, so the cache is
                    # not consulted here (hit counters must report reuse
                    # that actually bought something; recompute-mode
                    # restores still consult it either way).
                    cached = self.prefix_cache.lookup(entry.session, candidate.prompt_tokens)
                if self.prefill is not None:
                    if self.prefill.chunk_tokens is None:
                        # Blocking: the whole (uncached) prompt is charged
                        # now and the request decodes only once its prefill
                        # elapses (prefill runs on a dedicated path, in
                        # parallel with ongoing decode).
                        seconds = self.prefill.model.cumulative_seconds(candidate.prompt_tokens)
                        if cached:
                            seconds -= self.prefill.model.cumulative_seconds(cached)
                        entry.ready_s = clock + seconds
                        tracker.on_prefill(candidate.request_id, seconds)
                    else:
                        # Chunked: prefill shares the decode hardware and is
                        # advanced chunk-by-chunk by the main loop, starting
                        # past the cached prefix.
                        entry.prefill_total = candidate.prompt_tokens
                        entry.prefill_done = cached
                        if cached:
                            entry.prefill_done_s = self.prefill.model.cumulative_seconds(cached)
                active[candidate.request_id] = entry
                tracker.on_admission(candidate.request_id, clock)
                admitted.add(candidate.request_id)
            elif self.admission.head_of_line:
                break
        if admitted:
            if ordered is arrived and self.admission.head_of_line:
                # Identity-order head-of-line policies (FCFS) admit a strict
                # prefix of the queue, so the round costs O(admitted) rather
                # than an O(queue) rebuild -- the difference between O(n)
                # and O(n^2) total admission work under a deep backlog.
                for _ in range(len(admitted)):
                    arrived.popleft()
            else:
                remaining = [
                    candidate for candidate in arrived if candidate.request_id not in admitted
                ]
                arrived.clear()
                arrived.extend(remaining)
        return len(admitted), overhead_s

    def _grow_or_evict(
        self,
        entry: _ActiveRequest,
        stride: int,
        active: dict[int, _ActiveRequest],
        allocator: KVLifecycle,
        tracker: LifecycleTracker,
        clock: float,
        preempted: deque[_PreemptedRequest],
        preempted_now: set[int],
    ) -> float:
        """Grow ``entry`` by ``stride``, evicting victims until it fits.

        The preemption policy is consulted only when a grow raises
        :class:`CapacityExceeded`, which only the incremental contract
        can.  Victims leave ``active`` for the restore queue; their ids are
        added to ``preempted_now`` so the caller skips their turn this
        stride.  Returns the clock charge of the evictions.

        Raises:
            AllocationError: if no victim remains and the grow still fails
                (unreachable when admission enforces ``could_ever_fit``).
        """
        overhead_s = 0.0
        while True:
            try:
                allocator.grow(entry.request_id, stride)
                return overhead_s
            except CapacityExceeded:
                assert self.preemption is not None
                candidates = [
                    PreemptionCandidate(
                        request_id=other.request_id,
                        context_tokens=other.context,
                        admitted_s=other.admitted_s,
                        last_decode_s=other.last_step_s,
                        priority=other.priority,
                        preemptions=other.preempt_count,
                    )
                    for other in active.values()
                    if other.request_id != entry.request_id
                ]
                victim_id = self.preemption.policy.select(self.preemption.eligible(candidates))
                if victim_id is None:
                    raise AllocationError(
                        f"request {entry.request_id} cannot grow its KV cache and "
                        f"policy {self.preemption.policy.name!r} offers no victim; "
                        "the request exceeds what preemption can free"
                    ) from None
                if victim_id == entry.request_id or victim_id not in active:
                    raise ValueError(
                        f"preemption policy {self.preemption.policy.name!r} chose "
                        f"invalid victim {victim_id} for grower {entry.request_id}"
                    ) from None
                victim = active.pop(victim_id)
                victim.preempt_count += 1
                state = allocator.preempt(victim_id)
                overhead_s += self.preemption.cost.evict_seconds(state)
                tracker.on_preempt(victim_id, clock)
                preempted.append(_PreemptedRequest(entry=victim, state=state))
                preempted_now.add(victim_id)

    def _finish(
        self,
        entry: _ActiveRequest,
        active: dict[int, _ActiveRequest],
        allocator: KVLifecycle,
        tracker: LifecycleTracker,
        clock: float,
    ) -> None:
        """Retire a request whose last token was generated at ``clock``."""
        allocator.release(entry.request_id)
        del active[entry.request_id]
        tracker.on_finish(entry.request_id, clock)
        if self.prefix_cache is not None and entry.session is not None:
            # Retain the turn's full context as the session's reusable prefix.
            self.prefix_cache.insert(entry.session, entry.context)

    def _advance(
        self,
        decoding: list[_ActiveRequest],
        request_ids: list[int],
        grown: int,
        clock: float,
        first_token_s: float,
        active: dict[int, _ActiveRequest],
        allocator: KVLifecycle,
        tracker: LifecycleTracker,
    ) -> bool:
        """Credit ``grown`` tokens to every request of an already-grown batch.

        ``request_ids`` are the ids of ``decoding``, in order.  The batch's
        last token lands at ``clock``; a request's first token, if it is
        among them, at ``first_token_s``.  Requests that are done retire in
        batch order.  Returns whether any did.
        """
        tracker.on_batch_tokens(request_ids, grown, first_token_s)
        finished_any = False
        for entry in decoding:
            entry.context += grown
            entry.remaining -= grown
            entry.last_step_s = clock
            if entry.remaining <= 0:
                self._finish(entry, active, allocator, tracker, clock)
                finished_any = True
        return finished_any

    def _span_capacity_cap(
        self,
        allocator: ChunkedAllocator,
        decoding: list[_ActiveRequest],
        stride: int,
        n_max: int,
    ) -> int:
        """Longest prefix of ``n_max`` uniform grows provably free of failure.

        Under the incremental lifecycle contract a chunked allocator may
        raise ``CapacityExceeded`` mid-span.  Total committed demand after
        evaluation ``j`` is ``sum_i max(committed_i, chunks_needed(c_i +
        (j+1) * stride))`` plus the (constant) commitment of non-decoding
        requests; it is monotone in ``j`` and bounds every intra-evaluation
        prefix state, so all grows through evaluation ``j`` succeed iff the
        end-of-``j`` total fits ``total_chunks``.  Returns 0 when even the
        first evaluation may fail (the caller then runs the single-evaluation
        grow-or-evict path).
        """
        bytes_per_token = allocator.bytes_per_token
        chunk_bytes = allocator.chunk_bytes
        committed = [allocator.committed_chunks_for(entry.request_id) for entry in decoding]
        contexts = [entry.context for entry in decoding]
        # Chunks the batch may hold: all but the other requests' commitments.
        limit = allocator.total_chunks - allocator.committed_chunk_count + sum(committed)

        def fits_through(j: int) -> bool:
            grown = (j + 1) * stride
            demand = 0
            for context, held in zip(contexts, committed, strict=True):
                need = ((context + grown) * bytes_per_token + chunk_bytes - 1) // chunk_bytes
                demand += need if need > held else held
            return demand <= limit

        if fits_through(n_max - 1):
            return n_max
        if not fits_through(0):
            return 0
        # Largest n with fits_through(n - 1); demand is monotone in j.
        lo, hi = 1, n_max - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if fits_through(mid):
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- main loop ---------------------------------------------------------

    def run(self, trace: RequestTrace, system_name: str = "") -> EngineResult:
        """Serve ``trace`` to completion and aggregate metrics.

        Raises:
            AllocationError: if the system drains while a waiting request
                can never be admitted (it exceeds total KV capacity) under
                a head-of-line policy.  Skip-over policies drop such
                requests instead and report them via ``requests_dropped``.
        """
        allocator = allocator_for(self.system)
        future = self._candidates(trace)
        arrived: deque[AdmissionCandidate] = deque()
        active: dict[int, _ActiveRequest] = {}
        preempted: deque[_PreemptedRequest] = deque()
        chunked_lifecycle = self.lifecycle_admission and isinstance(allocator, ChunkedAllocator)
        preemption_count = 0
        preemption_overhead_s = 0.0
        # Preemption terminates (each eviction lets the grower advance and
        # restores never evict), but a generous ceiling guards policy bugs.
        preemption_budget = 1000 + 100 * len(trace.requests)
        tracker = LifecycleTracker()
        for candidate in future:
            tracker.on_arrival(
                candidate.request_id,
                candidate.prompt_tokens,
                candidate.decode_tokens,
                candidate.arrival_s,
                priority=candidate.priority,
                tier=candidate.request.tier,
                ttft_deadline_s=candidate.request.ttft_deadline_s,
                tpot_deadline_s=candidate.request.tpot_deadline_s,
            )
        records = tracker.records

        clock = 0.0
        busy_seconds = 0.0
        idle_seconds = 0.0
        total_tokens = 0
        steps = 0
        served = 0
        dropped: list[int] = []
        prefix_before = self.prefix_cache.stats() if self.prefix_cache is not None else None
        peak_batch = 0
        # Running sums of the per-evaluation samples, accumulated one
        # evaluation at a time so a span adds exactly what its evaluations
        # would have added one by one.
        batch_sum = 0.0
        eval_count = 0
        span_evaluations = 0
        utilization_sum = 0.0
        capacity_sum = 0.0
        capacity_count = 0
        # Per-field sums of the breakdowns, in CycleBreakdown field order.
        attention_sums = list(breakdown_fields(ZERO_BREAKDOWN))
        fc_sums = list(breakdown_fields(ZERO_BREAKDOWN))

        span_fn = getattr(self.system, "decode_span", None)
        span_hint = 64
        capacity_bytes = allocator.capacity_bytes
        cap_enabled = capacity_bytes > 0

        # An admission round is a complete pass: every remaining candidate
        # was rejected against the round's final state, and capacity only
        # shrinks within a round -- so re-running it is pointless until a
        # request finishes (freeing capacity and a batch slot) or a new
        # request arrives.  The dirty flag skips the per-step queue scan
        # (and the skip-over policies' re-sort) during backlog.
        admission_dirty = True

        while future or arrived or active or preempted:
            while future and future[0].arrival_s <= clock:
                arrived.append(future.popleft())
                admission_dirty = True

            if admission_dirty:
                admitted_now, restore_overhead_s = self._admit(
                    arrived, active, allocator, tracker, clock, preempted
                )
                served += admitted_now
                if restore_overhead_s:
                    busy_seconds += restore_overhead_s
                    clock += restore_overhead_s
                    preemption_overhead_s += restore_overhead_s
                admission_dirty = False

            if not active:
                if arrived:
                    # The admission round just ran against an *empty*
                    # allocator.  Under a head-of-line policy that means the
                    # head candidate can never be served (and blocks the
                    # queue, legacy behaviour: error out); under a skip-over
                    # policy every arrived candidate was tried and rejected,
                    # so all of them are unservable: drop them and keep the
                    # run's results.
                    if self.admission.head_of_line:
                        head = next(iter(self.admission.order(tuple(arrived))))
                        raise AllocationError(
                            f"head-of-line request {head.request_id} "
                            f"({head.final_tokens} tokens) can never fit the "
                            "system's KV-cache capacity and blocks the queue; "
                            "increase capacity, shorten the request, or use a "
                            "skip-over admission policy"
                        )
                    dropped.extend(candidate.request_id for candidate in arrived)
                    arrived.clear()
                    continue
                if future:
                    # System drained before the next arrival: idle forward.
                    idle_seconds += future[0].arrival_s - clock
                    clock = future[0].arrival_s
                    continue
                if preempted:
                    # Unreachable: a drained allocator always accepts the
                    # restore-queue head at the next admission round.
                    raise AllocationError(
                        f"{len(preempted)} preempted request(s) can never be "
                        "restored; the allocator is empty yet rejects them"
                    )
                break

            # Chunked prefill: advance at most chunk_tokens of waiting
            # prompt work this iteration, charging the marginal cumulative
            # cost (exact even for attention-quadratic models).
            prefill_step_seconds = 0.0
            prefill_tokens_processed = 0
            if self.prefill is not None and self.prefill.chunk_tokens is not None:
                budget = self.prefill.chunk_tokens
                for entry in active.values():
                    if budget <= 0:
                        break
                    pending = entry.prefill_total - entry.prefill_done
                    if pending <= 0:
                        continue
                    take = min(pending, budget)
                    done_s = self.prefill.model.cumulative_seconds(entry.prefill_done + take)
                    marginal = done_s - entry.prefill_done_s
                    entry.prefill_done += take
                    entry.prefill_done_s = done_s
                    budget -= take
                    prefill_step_seconds += marginal
                    prefill_tokens_processed += take
                    tracker.on_prefill(entry.request_id, marginal)

            if self.prefill is None:
                decoding = list(active.values())
            else:
                decoding = [entry for entry in active.values() if entry.decode_ready(clock)]

            if not decoding:
                if prefill_tokens_processed > 0:
                    # Chunked-prefill-only iteration: the hardware is busy
                    # prefilling even though nothing decodes yet.  (Token
                    # progress, not seconds, gates this branch so a
                    # zero-cost model still terminates.)
                    busy_seconds += prefill_step_seconds
                    clock += prefill_step_seconds
                    continue
                # Blocking prefill: every active request is still
                # prefilling.  Jump to the next event -- a prefill
                # completing or a new arrival (whichever is sooner), both
                # strictly in the future.  The decode path idles meanwhile.
                next_event = min(entry.ready_s for entry in active.values())
                if future:
                    next_event = min(next_event, future[0].arrival_s)
                idle_seconds += next_event - clock
                clock = next_event
                continue

            # -- stride and span planning ---------------------------------
            # How many uniform evaluations can run before anything *can*
            # change batch membership?  Completions bound the count (and may
            # only land on the span's final evaluation); possible chunked
            # grow failures force a single evaluation; arrival / prefill-ready
            # crossings truncate during execution.  Systems without a
            # closed-form ``decode_span`` price one evaluation per iteration.
            n_plan = 1
            if prefill_tokens_processed:
                # While prompt work is pending, decode and prefill must
                # advance at the same granularity: one chunk per decode
                # step.  A larger stride would let the decode clock run
                # step_stride steps per chunk, making prefill throughput
                # (and TTFT) depend on the accuracy knob.
                stride = 1
            else:
                min_remaining = min(entry.remaining for entry in decoding)
                stride = min(self.step_stride, min_remaining)
                if stride == self.step_stride and span_fn is not None:
                    n_plan = min(min_remaining // stride, span_hint, self.span_limit)
                    if n_plan > 1 and chunked_lifecycle:
                        n_plan = self._span_capacity_cap(allocator, decoding, stride, n_plan)

            # -- pricing ----------------------------------------------------
            # Every evaluation's (seconds, PIM utilization): a span (n_plan
            # >= 2 provably uneventful evaluations) in one vectorized call
            # whose evaluations carry zero breakdowns, anything else (an
            # event is possible) as one ``decode_step`` with its breakdowns.
            span = n_plan > 1
            contexts = [entry.context for entry in decoding]
            if span:
                priced = span_fn(contexts, stride, n_plan)
                seconds = priced[:, 0].tolist()
                utilizations = priced[:, 1].tolist()
            else:
                step = self.system.decode_step(contexts)
                seconds = [step.seconds]
                utilizations = [step.pim_utilization]
                attention_sums = _accumulate(attention_sums, step.attention_breakdown, stride)
                fc_sums = _accumulate(fc_sums, step.fc_breakdown, stride)

            # -- accounting: one evaluation at a time, in order -------------
            batch = len(decoding)
            threshold = math.inf
            if span:
                if future and (self.max_batch_size is None or len(active) < self.max_batch_size):
                    # At the batch cap an arrival cannot join (admission and
                    # restores both stop at the cap) until a completion,
                    # which ends the span anyway, so only an open slot lets
                    # an arrival cut the span.
                    threshold = future[0].arrival_s
                if self.prefill is not None and batch < len(active):
                    # Only blocking-style prefill can park requests here: any
                    # pending chunked prefill forces a single evaluation.
                    threshold = min(
                        threshold,
                        min(
                            entry.ready_s
                            for entry in active.values()
                            if not entry.decode_ready(clock)
                        ),
                    )
            if cap_enabled:
                # Fraction of the KV-cache capacity holding live tokens (the
                # Fig. 19 metric): static reservations waste the gap between
                # the actual and the maximum context; DPA only loses
                # admission headroom and last-chunk fragmentation.
                used_bytes = allocator.used_bytes
                used_increment = batch * stride * allocator.bytes_per_token
            n_eval = 0
            first_eval_end = 0.0
            for j, eval_seconds in enumerate(seconds):
                advance = eval_seconds * stride + prefill_step_seconds
                busy_seconds += advance
                clock += advance
                utilization_sum += utilizations[j]
                if cap_enabled:
                    capacity_sum += (used_bytes + j * used_increment) / capacity_bytes
                if j == 0:
                    first_eval_end = clock
                n_eval = j + 1
                if clock >= threshold:
                    break

            grown = stride * n_eval
            if cap_enabled:
                capacity_count += n_eval
            eval_count += n_eval
            batch_sum += float(batch * n_eval)
            steps += grown
            total_tokens += batch * grown
            peak_batch = max(peak_batch, batch)
            # Every request's first token, if it falls in these evaluations,
            # lands one decode step into the first stride.
            first_token_s = tracker.first_token_time(first_eval_end, seconds[0], stride)

            # -- growth ------------------------------------------------------
            request_ids = [entry.request_id for entry in decoding]
            grew = True
            if span:
                # The span was planned so that none of these grows can raise.
                for request_id in request_ids:
                    allocator.grow(request_id, grown)
                span_evaluations += n_eval
                # Adapt the hint: grow after full spans, shrink after
                # truncated ones.  Affects only how much latency work a
                # crossing wastes, never any result.
                if n_eval >= n_plan:
                    span_hint = min(self.span_limit, span_hint * 2)
                else:
                    span_hint = max(_MIN_HINT, 2 * n_eval)
            else:
                # Grow the whole batch at once.  The call is all or nothing,
                # and if the batch's combined growth fits, no one-by-one grow
                # could have failed either, however finishers released in
                # between; only physical chunk ids differ from that order.
                try:
                    allocator.grow_many(request_ids, stride)
                except CapacityExceeded:
                    grew = False
            if grew:
                if self._advance(
                    decoding, request_ids, grown, clock, first_token_s, active, allocator, tracker
                ):
                    admission_dirty = True
                continue

            # The batch does not fit as a whole (only the incremental
            # contract can fail), so grow request by request, evicting
            # victims; finished requests release immediately so later
            # growers in the same stride see the freed chunks before
            # resorting to eviction.
            finished_any = False
            preempted_now: set[int] = set()
            evict_overhead_s = 0.0
            for entry in decoding:
                if entry.request_id in preempted_now:
                    # Evicted by an earlier grower this stride: the
                    # batch-wide token count charged above never
                    # materialised for this request.
                    total_tokens -= stride
                    continue
                evict_overhead_s += self._grow_or_evict(
                    entry, stride, active, allocator, tracker, clock, preempted, preempted_now
                )
                entry.context += stride
                entry.remaining -= stride
                entry.last_step_s = clock
                tracker.on_tokens(entry.request_id, stride, clock, seconds[0])
                if entry.remaining <= 0:
                    self._finish(entry, active, allocator, tracker, clock)
                    finished_any = True
            if preempted_now:
                preemption_count += len(preempted_now)
                if preemption_count > preemption_budget:
                    raise AllocationError(
                        f"{preemption_count} preemptions exceed the livelock "
                        f"guard ({preemption_budget}); the policy "
                        f"{self.preemption.policy.name!r} is thrashing"
                    )
                busy_seconds += evict_overhead_s
                clock += evict_overhead_s
                preemption_overhead_s += evict_overhead_s
            if finished_any or preempted_now:
                admission_dirty = True

        def _ratio(total: float, count: int) -> float:
            return total / count if count else 0.0

        metadata: dict = {}
        if dropped:
            metadata["dropped_request_ids"] = dropped

        # Deltas, not lifetime counters: the prefix cache persists across
        # runs (that persistence is the whole point) but each result must
        # report its own hit rate.
        prefix_hits = prefix_misses = prefix_hit_tokens = prefix_evictions = 0
        if self.prefix_cache is not None and prefix_before is not None:
            prefix_after = self.prefix_cache.stats()
            prefix_hits = prefix_after.hits - prefix_before.hits
            prefix_misses = prefix_after.misses - prefix_before.misses
            prefix_hit_tokens = prefix_after.hit_tokens - prefix_before.hit_tokens
            prefix_evictions = prefix_after.evictions - prefix_before.evictions

        return EngineResult(
            system_name=system_name or type(self.system).__name__,
            dataset=trace.dataset,
            total_output_tokens=total_tokens,
            total_seconds=busy_seconds,
            steps=steps,
            average_batch_size=_ratio(batch_sum, eval_count),
            peak_batch_size=peak_batch,
            average_pim_utilization=_ratio(utilization_sum, eval_count),
            average_capacity_utilization=_ratio(capacity_sum, capacity_count),
            attention_breakdown=CycleBreakdown(*attention_sums),
            fc_breakdown=CycleBreakdown(*fc_sums),
            total_pim_channels=self.system.total_pim_channels,
            requests_served=served,
            metadata=metadata,
            makespan_s=clock,
            idle_seconds=idle_seconds,
            admission_policy=self.admission.name,
            latency=tracker.stats(),
            request_records=tuple(records[key] for key in sorted(records)),
            requests_dropped=len(dropped),
            prefill_mode=self.prefill.mode if self.prefill is not None else "none",
            prefill_seconds_total=sum(record.prefill_s for record in records.values()),
            preemption_policy=(
                self.preemption.policy.name if self.preemption is not None else "none"
            ),
            preemptions=preemption_count,
            preemption_overhead_s=preemption_overhead_s,
            recompute_tokens=sum(record.recompute_tokens for record in records.values()),
            # Every preemption is eventually restored (the run cannot end
            # with a non-empty restore queue), so stalls/preemptions is the
            # mean requeue delay.
            requeue_delay_mean_s=(
                sum(record.stall_s for record in records.values()) / preemption_count
                if preemption_count
                else 0.0
            ),
            prefix_cache_enabled=self.prefix_cache is not None,
            prefix_hits=prefix_hits,
            prefix_misses=prefix_misses,
            prefix_hit_tokens=prefix_hit_tokens,
            prefix_evictions=prefix_evictions,
            span_evaluations=span_evaluations,
        )


def serve(
    system: DecodeSystem,
    trace: RequestTrace,
    admission: AdmissionPolicy | None = None,
    max_batch_size: int | None = None,
    step_stride: int = 1,
    prefill: PrefillConfig | None = None,
    preemption: PreemptionConfig | None = None,
    prefix_cache: PrefixCache | None = None,
    system_name: str = "",
) -> EngineResult:
    """One-shot convenience wrapper around :class:`ServingEngine`."""
    engine = ServingEngine(
        system=system,
        admission=admission if admission is not None else FCFSAdmission(),
        max_batch_size=max_batch_size,
        step_stride=step_stride,
        prefill=prefill,
        preemption=preemption,
        prefix_cache=prefix_cache,
    )
    return engine.run(trace, system_name=system_name)
