"""Request trace generation for the serving simulator."""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.workloads.datasets import DatasetStats, get_dataset

if TYPE_CHECKING:
    from collections.abc import Callable

    from repro.api.spec import ArrivalSpec, TierSpec, TraceSpec


@dataclass(frozen=True, slots=True)
class Request:
    """One inference request of a serving trace.

    Attributes:
        request_id: Unique id within the trace.
        prompt_tokens: Input (prefill) context length.
        output_tokens: Tokens to generate during decoding.
        arrival_s: Wall-clock arrival time in seconds.  Traces generated
            without an arrival process have every request arrive at time 0,
            which reproduces the legacy closed-loop serving behaviour.
        priority: Scheduling priority (larger is more urgent); consulted
            by priority-aware admission policies and by the
            ``evict-priority-*`` preemption policies when picking victims.
        session: Optional conversation/session id; requests sharing a
            session id are kept on the same replica by session-affinity
            routing (their KV prefix lives there).  ``None`` means the
            request belongs to no session.
        tier: Name of the SLO tier the request belongs to (see
            :func:`assign_tiers`); ``None`` means untiered.
        ttft_deadline_s: Time-to-first-token SLO deadline inherited from
            the tier (``None`` means no deadline).
        tpot_deadline_s: Per-output-token SLO deadline inherited from the
            tier (``None`` means no deadline).
    """

    request_id: int
    prompt_tokens: int
    output_tokens: int
    arrival_s: float = 0.0
    priority: int = 0
    session: int | None = None
    tier: str | None = None
    ttft_deadline_s: float | None = None
    tpot_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.prompt_tokens <= 0 or self.output_tokens <= 0:
            raise ValueError("prompt_tokens and output_tokens must be positive")
        if not math.isfinite(self.arrival_s) or self.arrival_s < 0:
            # NaN/inf would stall the engine's idle-forward clock forever.
            raise ValueError("arrival_s must be finite and non-negative")

    @property
    def final_context(self) -> int:
        """Context length when the request completes."""
        return self.prompt_tokens + self.output_tokens


#: ``__set__`` of each field's slot descriptor: it writes the slot
#: directly, bypassing the frozen ``__setattr__`` guard.
_REQUEST_SLOT_SETTERS = {
    field.name: Request.__dict__[field.name].__set__ for field in dataclasses.fields(Request)
}
_set_request_id = _REQUEST_SLOT_SETTERS["request_id"]
_set_prompt_tokens = _REQUEST_SLOT_SETTERS["prompt_tokens"]
_set_output_tokens = _REQUEST_SLOT_SETTERS["output_tokens"]
_set_arrival_s = _REQUEST_SLOT_SETTERS["arrival_s"]
_set_priority = _REQUEST_SLOT_SETTERS["priority"]
_set_session = _REQUEST_SLOT_SETTERS["session"]
_set_tier = _REQUEST_SLOT_SETTERS["tier"]
_set_ttft_deadline_s = _REQUEST_SLOT_SETTERS["ttft_deadline_s"]
_set_tpot_deadline_s = _REQUEST_SLOT_SETTERS["tpot_deadline_s"]


def _fast_request(
    request_id: int,
    prompt_tokens: int,
    output_tokens: int,
    arrival_s: float = 0.0,
    priority: int = 0,
    session: int | None = None,
    tier: str | None = None,
    ttft_deadline_s: float | None = None,
    tpot_deadline_s: float | None = None,
) -> Request:
    """Construct a :class:`Request` without re-running ``__post_init__``.

    Million-request traces pay the dataclass ``__init__`` + validation cost
    once per request; the bulk generators below validate whole fields with
    numpy instead (raising the same error messages), then build the
    instances directly.  Callers must have validated every field.

    Each slot is written once through its member descriptor, unrolled:
    the generated ``__init__`` routes every field through
    ``object.__setattr__``, and a per-field ``setattr`` loop costs about
    half again as much as these nine calls.
    """
    request = object.__new__(Request)
    _set_request_id(request, request_id)
    _set_prompt_tokens(request, prompt_tokens)
    _set_output_tokens(request, output_tokens)
    _set_arrival_s(request, arrival_s)
    _set_priority(request, priority)
    _set_session(request, session)
    _set_tier(request, tier)
    _set_ttft_deadline_s(request, ttft_deadline_s)
    _set_tpot_deadline_s(request, tpot_deadline_s)
    return request


def _with_fields(request: Request, **changes: object) -> Request:
    """Clone a validated :class:`Request` with ``changes``, skipping
    ``__post_init__`` (``dataclasses.replace`` re-validates every field,
    which dominates trace post-processing at large n).

    The clone copies the nine slots through :func:`_fast_request`, then
    overwrites each changed slot through its member descriptor.  An
    unknown field name raises ``TypeError``, as ``dataclasses.replace``
    does.
    """
    clone = _fast_request(
        request.request_id,
        request.prompt_tokens,
        request.output_tokens,
        request.arrival_s,
        request.priority,
        request.session,
        request.tier,
        request.ttft_deadline_s,
        request.tpot_deadline_s,
    )
    for name, value in changes.items():
        try:
            setter = _REQUEST_SLOT_SETTERS[name]
        except KeyError:
            raise TypeError(f"Request has no field {name!r}") from None
        setter(clone, value)
    return clone


@dataclass(frozen=True)
class RequestTrace:
    """An ordered collection of requests drawn from one dataset model."""

    dataset: str
    requests: tuple[Request, ...]

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def prompt_lengths(self) -> list[int]:
        return [request.prompt_tokens for request in self.requests]

    @property
    def mean_prompt_tokens(self) -> float:
        if not self.requests:
            return 0.0
        return sum(self.prompt_lengths) / len(self.requests)

    @property
    def max_prompt_tokens(self) -> int:
        return max(self.prompt_lengths, default=0)

    @property
    def total_output_tokens(self) -> int:
        return sum(request.output_tokens for request in self.requests)

    @property
    def arrival_times(self) -> list[float]:
        return [request.arrival_s for request in self.requests]

    @property
    def last_arrival_s(self) -> float:
        return max(self.arrival_times, default=0.0)


def generate_trace(
    dataset: DatasetStats,
    num_requests: int,
    seed: int = 0,
    context_window: int | None = None,
    output_tokens: int | None = None,
) -> RequestTrace:
    """Generate a request trace from a dataset's context-length statistics.

    Args:
        dataset: Context-length distribution to sample from.
        num_requests: Number of requests to generate.
        seed: Random seed (traces are reproducible).
        context_window: Optional model context window to clamp prompts to.
        output_tokens: Override for the per-request generation length.

    Returns:
        A :class:`RequestTrace` with ``num_requests`` requests.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    stats = dataset if context_window is None else dataset.clamp_to_window(context_window)
    rng = np.random.default_rng(seed)
    lengths = stats.sample(num_requests, rng)
    generate = output_tokens if output_tokens is not None else stats.output_tokens
    # Bulk path: truncate and validate the whole sample at once (int64
    # astype truncates like int(), so values are unchanged), then build the
    # requests without per-instance re-validation.
    prompts = np.asarray(lengths).astype(np.int64).tolist()
    if generate <= 0 or (prompts and min(prompts) <= 0):
        raise ValueError("prompt_tokens and output_tokens must be positive")
    requests = tuple(
        _fast_request(request_id=index, prompt_tokens=prompt, output_tokens=generate)
        for index, prompt in enumerate(prompts)
    )
    return RequestTrace(dataset=stats.name, requests=requests)


def poisson_arrivals(trace: RequestTrace, rate_rps: float, seed: int = 0) -> RequestTrace:
    """Attach Poisson-process arrival times to a trace.

    Inter-arrival gaps are drawn from an exponential distribution with mean
    ``1 / rate_rps``, the standard open-loop serving model: requests arrive
    independently at an average rate instead of all being queued at time 0.

    Args:
        trace: Trace whose requests receive arrival timestamps (in order).
        rate_rps: Mean arrival rate in requests per second.
        seed: Random seed (arrival processes are reproducible).

    Returns:
        A new :class:`RequestTrace` with monotonically increasing arrivals.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=len(trace.requests))
    times = np.cumsum(gaps)
    # Exponential gaps are non-negative, so the cumulative times are sorted
    # and only the final (largest) one can have overflowed to infinity.
    if times.size and not np.isfinite(times[-1]):
        raise ValueError(
            "arrival_s must be finite and non-negative; request index "
            f"{times.size - 1} overflowed to {float(times[-1])!r} at "
            f"rate_rps={rate_rps!r}"
        )
    requests = tuple(
        _with_fields(request, arrival_s=arrival_s)
        for request, arrival_s in zip(trace.requests, times.tolist(), strict=True)
    )
    return RequestTrace(dataset=trace.dataset, requests=requests)


def _checked_replay_times(
    trace: RequestTrace, arrival_times: Sequence[float], monotonic: bool
) -> np.ndarray:
    """Validate replayed timestamps, naming the offending index and value."""
    if len(arrival_times) != len(trace.requests):
        raise ValueError(
            f"expected {len(trace.requests)} arrival times, got {len(arrival_times)}"
        )
    times = np.asarray([float(arrival_s) for arrival_s in arrival_times], dtype=np.float64)
    if times.size:
        bad = np.flatnonzero(~(np.isfinite(times) & (times >= 0)))
        if bad.size:
            index = int(bad[0])
            raise ValueError(
                "arrival_s must be finite and non-negative; "
                f"arrival_times[{index}] is {float(times[index])!r}"
            )
    if monotonic and times.size > 1:
        drops = np.flatnonzero(np.diff(times) < 0)
        if drops.size:
            index = int(drops[0]) + 1
            raise ValueError(
                "replay arrival_times must be non-decreasing; "
                f"arrival_times[{index}] ({float(times[index])!r}) precedes "
                f"arrival_times[{index - 1}] ({float(times[index - 1])!r}); "
                "pass monotonic=False to replay out-of-order timestamps"
            )
    return times


def replay_arrivals(
    trace: RequestTrace,
    arrival_times: Sequence[float],
    *,
    monotonic: bool = True,
) -> RequestTrace:
    """Attach explicit (replayed) arrival timestamps to a trace.

    Args:
        trace: Trace whose requests receive the timestamps, positionally.
        arrival_times: One non-negative arrival time per request, e.g.
            replayed from a production log.
        monotonic: Require non-decreasing timestamps (the normal shape of a
            production log).  Pass ``False`` to replay deliberately
            out-of-order arrivals, e.g. to exercise the engine's
            admission-by-arrival-time ordering.

    Returns:
        A new :class:`RequestTrace` with the given arrival times.
    """
    times = _checked_replay_times(trace, arrival_times, monotonic)
    requests = tuple(
        _with_fields(request, arrival_s=arrival_s)
        for request, arrival_s in zip(trace.requests, times.tolist(), strict=True)
    )
    return RequestTrace(dataset=trace.dataset, requests=requests)


def _thinned_arrivals(
    trace: RequestTrace,
    rate_fn: "Callable[[np.ndarray], np.ndarray]",
    rate_max_rps: float,
    seed: int,
) -> RequestTrace:
    """Attach arrivals from a non-homogeneous Poisson process via thinning.

    Lewis-Shedler thinning, batch-vectorized: candidate arrivals are drawn
    from a homogeneous process at ``rate_max_rps`` and each is accepted
    with probability ``rate_fn(t) / rate_max_rps``.  When a chunk yields
    more acceptances than still needed, the prefix is taken; otherwise the
    homogeneous process continues from the last *candidate* (accepted or
    not), which is exact because the candidate stream is memoryless.
    Amortized O(n) in the trace length for any rate function bounded away
    from zero on average.
    """
    needed = len(trace.requests)
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    count = 0
    start_s = 0.0
    # Oversample so traces with healthy acceptance ratios finish in one or
    # two draws; pathological ratios just loop more chunks.
    chunk = max(256, 2 * needed)
    while count < needed:
        gaps = rng.exponential(1.0 / rate_max_rps, size=chunk)
        candidates = start_s + np.cumsum(gaps)
        if not np.isfinite(candidates[-1]):
            raise ValueError(
                "arrival_s must be finite and non-negative; request index "
                f"{count} overflowed past {start_s!r} at "
                f"rate_max_rps={rate_max_rps!r}"
            )
        rates = np.asarray(rate_fn(candidates), dtype=np.float64)
        keep = candidates[rng.random(chunk) * rate_max_rps < rates]
        accepted.append(keep)
        count += keep.size
        start_s = float(candidates[-1])
    times = np.concatenate(accepted)[:needed] if accepted else np.empty(0)
    requests = tuple(
        _with_fields(request, arrival_s=arrival_s)
        for request, arrival_s in zip(trace.requests, times.tolist(), strict=True)
    )
    return RequestTrace(dataset=trace.dataset, requests=requests)


def diurnal_arrivals(
    trace: RequestTrace,
    base_rate_rps: float,
    period_s: float,
    amplitude: float = 0.5,
    phase_s: float = 0.0,
    seed: int = 0,
) -> RequestTrace:
    """Attach arrivals from a sinusoidally-modulated Poisson process.

    The instantaneous rate is::

        rate(t) = base_rate_rps * (1 + amplitude * sin(2*pi*(t - phase_s) / period_s))

    which models diurnal traffic: a day-scale ``period_s`` swings the load
    between ``base * (1 - amplitude)`` (trough) and ``base * (1 + amplitude)``
    (peak), a peak-to-trough ratio of ``(1 + a) / (1 - a)``.  Sampled by
    thinning (see :func:`_thinned_arrivals`), seeded and O(n).

    Args:
        trace: Trace whose requests receive arrival timestamps (in order).
        base_rate_rps: Mean arrival rate in requests per second (positive).
        period_s: Oscillation period in seconds (positive).
        amplitude: Relative swing in ``[0, 1]``; ``0`` degenerates to a
            homogeneous Poisson process at ``base_rate_rps``.
        phase_s: Time offset of the sinusoid; ``phase_s = period_s / 4``
            starts the trace at the trough.
        seed: Random seed (arrival processes are reproducible).

    Returns:
        A new :class:`RequestTrace` with monotonically increasing arrivals.
    """
    if base_rate_rps <= 0:
        raise ValueError("base_rate_rps must be positive")
    if period_s <= 0 or not math.isfinite(period_s):
        raise ValueError("period_s must be positive and finite")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError(f"amplitude must lie in [0, 1], got {amplitude!r}")
    if not math.isfinite(phase_s):
        raise ValueError("phase_s must be finite")
    omega = 2.0 * math.pi / period_s

    def rate(times: np.ndarray) -> np.ndarray:
        return base_rate_rps * (1.0 + amplitude * np.sin(omega * (times - phase_s)))

    rate_max = base_rate_rps * (1.0 + amplitude)
    return _thinned_arrivals(trace, rate, rate_max, seed)


def burst_arrivals(
    trace: RequestTrace,
    base_rate_rps: float,
    bursts: Sequence[tuple[float, float, float]],
    seed: int = 0,
) -> RequestTrace:
    """Attach arrivals from a Poisson process with flash-crowd windows.

    The rate is ``base_rate_rps`` everywhere except inside each burst
    window ``(start_s, duration_s, multiplier)``, where it becomes
    ``base_rate_rps * multiplier``.  Windows must not overlap.  Sampled by
    thinning (see :func:`_thinned_arrivals`), seeded and O(n).

    Args:
        trace: Trace whose requests receive arrival timestamps (in order).
        base_rate_rps: Baseline arrival rate in requests per second.
        bursts: ``(start_s, duration_s, multiplier)`` windows; a
            ``multiplier`` above 1 is a flash crowd, below 1 a lull.
        seed: Random seed (arrival processes are reproducible).

    Returns:
        A new :class:`RequestTrace` with monotonically increasing arrivals.
    """
    if base_rate_rps <= 0:
        raise ValueError("base_rate_rps must be positive")
    windows = []
    for index, (start_s, duration_s, multiplier) in enumerate(bursts):
        if not math.isfinite(start_s) or start_s < 0:
            raise ValueError(f"bursts[{index}].start_s must be finite and non-negative")
        if not math.isfinite(duration_s) or duration_s <= 0:
            raise ValueError(f"bursts[{index}].duration_s must be positive and finite")
        if not math.isfinite(multiplier) or multiplier <= 0:
            raise ValueError(f"bursts[{index}].multiplier must be positive and finite")
        windows.append((float(start_s), float(duration_s), float(multiplier)))
    windows.sort()
    for (start_a, duration_a, _), (start_b, _, _) in zip(windows, windows[1:], strict=False):
        if start_b < start_a + duration_a:
            raise ValueError(
                f"burst windows overlap: window starting at {start_b!r} begins "
                f"before the window at {start_a!r} ends ({start_a + duration_a!r})"
            )

    def rate(times: np.ndarray) -> np.ndarray:
        multipliers = np.ones_like(times)
        for start_s, duration_s, multiplier in windows:
            multipliers[(times >= start_s) & (times < start_s + duration_s)] = multiplier
        return base_rate_rps * multipliers

    peak = max((multiplier for _, _, multiplier in windows), default=1.0)
    rate_max = base_rate_rps * max(1.0, peak)
    return _thinned_arrivals(trace, rate, rate_max, seed)


def warped_replay_arrivals(
    trace: RequestTrace,
    arrival_times: Sequence[float],
    phases: Sequence[tuple[float, float]],
) -> RequestTrace:
    """Replay timestamps through a piecewise time-dilation profile.

    Each phase ``(start_s, factor)`` applies from its start (on the
    *source* timeline) until the next phase begins: a source interval of
    length ``dt`` inside a phase maps to ``dt * factor`` of simulated
    time.  Factors above 1 stretch the log (lower load), below 1 compress
    it (higher load) -- the standard way to rescale a production trace to
    a what-if intensity without resampling it.  The warp
    ``W(t)`` is piecewise linear, so the mapping is exact and O(n).

    Args:
        trace: Trace whose requests receive the warped timestamps.
        arrival_times: One non-negative, non-decreasing source timestamp
            per request (replayed logs are monotonic by construction).
        phases: ``(start_s, factor)`` breakpoints with strictly increasing
            starts; a phase starting after 0 implies factor 1 before it.

    Returns:
        A new :class:`RequestTrace` with the warped arrival times.
    """
    if not phases:
        raise ValueError("phases must be non-empty; use replay_arrivals for an unwarped replay")
    cleaned = []
    for index, (start_s, factor) in enumerate(phases):
        if not math.isfinite(start_s) or start_s < 0:
            raise ValueError(f"phases[{index}].start_s must be finite and non-negative")
        if not math.isfinite(factor) or factor <= 0:
            raise ValueError(f"phases[{index}].factor must be positive and finite")
        cleaned.append((float(start_s), float(factor)))
    for (start_a, _), (start_b, _) in zip(cleaned, cleaned[1:], strict=False):
        if start_b <= start_a:
            raise ValueError(
                f"phase starts must be strictly increasing, got {start_b!r} "
                f"after {start_a!r}"
            )
    if cleaned[0][0] > 0.0:
        cleaned.insert(0, (0.0, 1.0))
    times = _checked_replay_times(trace, arrival_times, monotonic=True)
    starts = np.asarray([start_s for start_s, _ in cleaned])
    factors = np.asarray([factor for _, factor in cleaned])
    # Warped time at each phase start: cumulative sum of fully-elapsed
    # phase spans, each scaled by its own factor.
    warped_starts = np.concatenate(([0.0], np.cumsum(np.diff(starts) * factors[:-1])))
    slots = np.searchsorted(starts, times, side="right") - 1
    warped = warped_starts[slots] + (times - starts[slots]) * factors[slots]
    return replay_arrivals(trace, warped.tolist())


def assign_sessions(trace: RequestTrace, session_ids: Sequence[int | None]) -> RequestTrace:
    """Attach session ids to a trace, positionally (replay-style).

    Args:
        trace: Trace whose requests receive the session ids.
        session_ids: One id (or ``None``) per request, e.g. the
            conversation ids of a replayed production log.

    Returns:
        A new :class:`RequestTrace` with the given session ids.
    """
    if len(session_ids) != len(trace.requests):
        raise ValueError(
            f"expected {len(trace.requests)} session ids, got {len(session_ids)}"
        )
    requests = tuple(
        _with_fields(request, session=None if session is None else int(session))
        for request, session in zip(trace.requests, session_ids, strict=True)
    )
    return RequestTrace(dataset=trace.dataset, requests=requests)


def random_sessions(trace: RequestTrace, num_sessions: int, seed: int = 0) -> RequestTrace:
    """Attach uniformly random session ids in ``[0, num_sessions)`` to a trace.

    The assignment is reproducible from ``seed``, which the declarative
    experiment API derives from the experiment's single seed -- so identical
    specs produce identical session layouts.

    Args:
        trace: Trace whose requests receive session ids.
        num_sessions: Number of distinct sessions (positive).
        seed: Random seed.

    Returns:
        A new :class:`RequestTrace` with every request in some session.
    """
    if num_sessions <= 0:
        raise ValueError("num_sessions must be positive")
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, num_sessions, size=len(trace.requests))
    return assign_sessions(trace, ids.tolist())


def assign_tiers(trace: RequestTrace, tiers: Sequence["TierSpec"]) -> RequestTrace:
    """Tag requests with SLO-tier metadata (name, priority, deadlines).

    Matching is deterministic -- no randomness is involved, so identical
    traces and tier lists always produce identical taggings:

    * Tiers with a ``sessions`` predicate claim every request whose
      session id they list.
    * Tiers with a ``share`` then split the *remaining* requests in trace
      order by greedy quota: request ``i`` (counting unclaimed requests)
      joins the first share tier whose tagged count is still below
      ``share * (i + 1)``.  A share of ``1/N`` therefore tags exactly
      every ``N``-th request (0, N, 2N, ...).
    * At most one catch-all tier (neither predicate) takes the leftovers;
      with no catch-all, leftover requests stay untiered.

    Args:
        trace: Trace whose requests receive tier metadata.
        tiers: Tier declarations (:class:`~repro.api.spec.TierSpec`), in
            matching order.

    Returns:
        A new :class:`RequestTrace` with matched requests carrying their
        tier's name, priority and TTFT/TPOT deadlines.
    """
    session_tiers: dict[int, "TierSpec"] = {}
    for tier in tiers:
        for session in tier.sessions or ():
            session_tiers.setdefault(session, tier)
    share_tiers = [tier for tier in tiers if tier.share is not None]
    catch_all = next((tier for tier in tiers if tier.is_catch_all), None)
    counts = [0] * len(share_tiers)
    position = 0  # rank among requests not claimed by a session predicate
    requests = []
    for request in trace.requests:
        tier = None
        if request.session is not None and request.session in session_tiers:
            tier = session_tiers[request.session]
        else:
            for slot, candidate in enumerate(share_tiers):
                if counts[slot] < candidate.share * (position + 1):
                    tier = candidate
                    counts[slot] += 1
                    break
            else:
                tier = catch_all
            position += 1
        if tier is None:
            requests.append(request)
        else:
            requests.append(
                _with_fields(
                    request,
                    priority=tier.priority,
                    tier=tier.name,
                    ttft_deadline_s=tier.ttft_deadline_s,
                    tpot_deadline_s=tier.tpot_deadline_s,
                )
            )
    return RequestTrace(dataset=trace.dataset, requests=tuple(requests))


def multi_turn_trace(
    num_sessions: int,
    turns_per_session: int,
    first_prompt_tokens: int,
    followup_tokens: int,
    output_tokens: int,
    seed: int = 0,
    context_window: int | None = None,
    turn_gap_s: float = 0.0,
    dataset: str = "multi-turn",
) -> RequestTrace:
    """Generate conversational sessions whose turns share an accumulated prefix.

    Each session opens with a prompt of roughly ``first_prompt_tokens``
    (jittered per session so sessions are distinguishable, reproducibly
    from ``seed``) and every follow-up turn's prompt is the previous
    turn's *entire context* -- prompt plus generated output -- plus
    ``followup_tokens`` of new user input.  That accumulated-prefix
    relation is exactly what a prefix cache exploits: turn ``k`` shares
    its first ``prompt_{k-1} + output`` tokens with the replica that
    served turn ``k-1``.

    Requests are ordered turn-major (all first turns, then all second
    turns, ...), so both the all-at-once and the Poisson arrival
    processes keep each session's turns in conversation order.  With
    ``turn_gap_s > 0`` the trace carries its own deterministic arrivals
    instead: session ``s``'s turn ``k`` arrives at ``k * turn_gap_s``
    plus a per-session jitter in ``[0, turn_gap_s)``, spacing turns far
    enough apart that a turn's predecessor has usually finished (and its
    prefix is cached) by the time it arrives.

    Args:
        num_sessions: Concurrent conversations (positive).
        turns_per_session: Turns per conversation (positive).
        first_prompt_tokens: Nominal opening prompt length; each session
            jitters it by up to +/-25%.
        followup_tokens: New user tokens added by every follow-up turn.
        output_tokens: Tokens generated per turn.
        seed: Seed for the per-session jitter (traces are reproducible).
        context_window: Optional window; prompts are clamped so
            ``prompt + output`` never exceeds it (sessions saturate there).
        turn_gap_s: Optional deterministic inter-turn arrival spacing.
        dataset: Dataset label carried by the trace.

    Returns:
        A :class:`RequestTrace` of ``num_sessions * turns_per_session``
        requests, every one tagged with its session id.
    """
    if num_sessions <= 0:
        raise ValueError("num_sessions must be positive")
    if turns_per_session <= 0:
        raise ValueError("turns_per_session must be positive")
    if first_prompt_tokens <= 0 or followup_tokens <= 0 or output_tokens <= 0:
        raise ValueError(
            "first_prompt_tokens, followup_tokens and output_tokens must be positive"
        )
    if context_window is not None and output_tokens >= context_window:
        # The clamp guarantees prompt + output <= window, which is only
        # satisfiable when the output alone leaves room for a prompt.
        raise ValueError(
            f"output_tokens ({output_tokens}) must be smaller than the "
            f"context window ({context_window})"
        )
    if turn_gap_s < 0:
        raise ValueError("turn_gap_s must be non-negative")
    if not math.isfinite(turn_gap_s):
        raise ValueError("arrival_s must be finite and non-negative")
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(0.75, 1.25, size=num_sessions)
    offsets = rng.uniform(0.0, turn_gap_s, size=num_sessions) if turn_gap_s > 0 else None

    def clamp(prompt: int) -> int:
        if context_window is None:
            return prompt
        return max(1, min(prompt, context_window - output_tokens))

    prompts = [clamp(max(1, int(round(first_prompt_tokens * j)))) for j in jitter]
    offset_list = offsets.tolist() if offsets is not None else None
    requests = []
    for turn in range(turns_per_session):
        for session in range(num_sessions):
            arrival = 0.0
            if offset_list is not None:
                arrival = turn * turn_gap_s + offset_list[session]
            # Every field is validated above (prompts are clamped >= 1,
            # arrivals are finite and non-negative by construction), so the
            # bulk constructor can skip per-request re-validation.
            requests.append(
                _fast_request(
                    request_id=len(requests),
                    prompt_tokens=prompts[session],
                    output_tokens=output_tokens,
                    arrival_s=arrival,
                    session=session,
                )
            )
            # Next turn's prompt: this turn's full context plus new input.
            prompts[session] = clamp(prompts[session] + output_tokens + followup_tokens)
    return RequestTrace(dataset=dataset, requests=tuple(requests))


def partition_trace(
    trace: RequestTrace,
    assignments: Sequence[int | None],
    num_parts: int,
) -> list[RequestTrace]:
    """Split a trace into per-replica sub-traces by routing assignment.

    Requests keep their original ids, arrival times and relative order, so
    serving each sub-trace independently reproduces exactly what a replica
    behind a router would see.

    Args:
        trace: Trace to split.
        assignments: One replica index per request (positionally); ``None``
            means the request was dropped at the router and appears in no
            sub-trace.
        num_parts: Number of replicas; every non-``None`` assignment must
            lie in ``[0, num_parts)``.

    Returns:
        ``num_parts`` traces (possibly empty) sharing the input's dataset.
    """
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")
    if len(assignments) != len(trace.requests):
        raise ValueError(
            f"expected {len(trace.requests)} assignments, got {len(assignments)}"
        )
    buckets: list[list[Request]] = [[] for _ in range(num_parts)]
    for request, assignment in zip(trace.requests, assignments, strict=True):
        if assignment is None:
            continue
        if not 0 <= assignment < num_parts:
            raise ValueError(
                f"assignment {assignment} for request {request.request_id} is outside "
                f"[0, {num_parts})"
            )
        buckets[assignment].append(request)
    return [
        RequestTrace(dataset=trace.dataset, requests=tuple(bucket)) for bucket in buckets
    ]


# -- trace sources for the declarative experiment API ------------------------
#
# Factories listed in repro.api.registry.TRACES take (spec: TraceSpec,
# context_window, seed) and return the base trace; the API layer then
# applies the arrival process, session assignment and priority tagging
# uniformly across sources.


def _dataset_trace(spec: TraceSpec, context_window: int, seed: int) -> RequestTrace:
    """Sample a trace from a registered dataset's context distribution."""
    return generate_trace(
        get_dataset(spec.dataset),
        num_requests=spec.num_requests,
        seed=seed,
        context_window=context_window,
        output_tokens=spec.output_tokens,
    )


def _synthetic_trace(spec: TraceSpec, context_window: int, seed: int) -> RequestTrace:
    """Fixed-shape requests, optionally with every N-th request made heavy.

    ``heavy_every`` reproduces the skewed-context scenarios used to stress
    capacity-aware routing; the seed is unused (the trace is deterministic)
    but kept in the signature so all sources share it.
    """
    del seed
    output = spec.output_tokens if spec.output_tokens else 32
    # Only two request shapes exist; validating one Request per shape keeps
    # the exact constructor errors while the remaining n-2 instances take
    # the bulk path.
    normal = Request(
        request_id=0,
        prompt_tokens=min(spec.prompt_tokens, context_window),
        output_tokens=output,
    ).prompt_tokens
    heavy_prompt = normal
    if spec.heavy_every > 0:
        heavy_prompt = Request(
            request_id=0,
            prompt_tokens=min(spec.heavy_prompt_tokens, context_window),
            output_tokens=output,
        ).prompt_tokens
    requests = tuple(
        _fast_request(
            request_id=index,
            prompt_tokens=(
                heavy_prompt
                if spec.heavy_every > 0 and index % spec.heavy_every == 0
                else normal
            ),
            output_tokens=output,
        )
        for index in range(spec.num_requests)
    )
    return RequestTrace(dataset="synthetic", requests=requests)


def _multi_turn_source(spec: TraceSpec, context_window: int, seed: int) -> RequestTrace:
    """Multi-turn conversations; sessions and (optional) arrivals are built in.

    ``trace.num_sessions`` and ``trace.turns_per_session`` shape the
    conversation set; ``trace.num_requests`` must equal their product (a
    silently ignored count would make sweeps over it meaningless and the
    report's ``num_requests`` wrong).  The experiment API skips its own
    random session assignment because this source already tags every
    request.
    """
    if spec.num_sessions <= 0:
        raise ValueError(
            "trace.num_sessions must be positive for the 'multi-turn' source, "
            f"got {spec.num_sessions}"
        )
    if spec.turns_per_session <= 0:
        raise ValueError(
            "trace.turns_per_session must be positive for the 'multi-turn' source, "
            f"got {spec.turns_per_session}"
        )
    product = spec.num_sessions * spec.turns_per_session
    if spec.num_requests != product:
        raise ValueError(
            "trace.num_requests must equal trace.num_sessions * "
            f"trace.turns_per_session (= {product}) for the 'multi-turn' "
            f"source, got {spec.num_requests}"
        )
    return multi_turn_trace(
        num_sessions=spec.num_sessions,
        turns_per_session=spec.turns_per_session,
        first_prompt_tokens=spec.prompt_tokens,
        followup_tokens=spec.followup_tokens,
        output_tokens=spec.output_tokens if spec.output_tokens else 32,
        seed=seed,
        context_window=context_window,
        turn_gap_s=spec.turn_gap_s,
    )


# -- arrival processes for the declarative experiment API ---------------------
#
# Factories listed in repro.api.registry.ARRIVAL_PROCESSES take (trace,
# spec: ArrivalSpec, seed) and return the trace with arrival timestamps
# attached.  They are thin adapters over the
# helpers above, so spec-driven arrivals stay equivalence-pinned against
# direct helper calls with the same derived seed.


def _poisson_process(trace: RequestTrace, spec: ArrivalSpec, seed: int) -> RequestTrace:
    """Homogeneous Poisson arrivals at ``spec.rate_rps``."""
    return poisson_arrivals(trace, spec.rate_rps, seed=seed)


def _replay_process(trace: RequestTrace, spec: ArrivalSpec, seed: int) -> RequestTrace:
    """Explicit timestamps from ``spec.times`` (monotonic, one per request)."""
    del seed  # replay is deterministic
    return replay_arrivals(trace, spec.times or ())


def _diurnal_process(trace: RequestTrace, spec: ArrivalSpec, seed: int) -> RequestTrace:
    """Sinusoidally-modulated Poisson arrivals (diurnal load)."""
    return diurnal_arrivals(
        trace,
        base_rate_rps=spec.rate_rps,
        period_s=spec.period_s,
        amplitude=spec.amplitude,
        phase_s=spec.phase_s,
        seed=seed,
    )


def _burst_process(trace: RequestTrace, spec: ArrivalSpec, seed: int) -> RequestTrace:
    """Poisson arrivals with flash-crowd multiplier windows."""
    return burst_arrivals(
        trace,
        base_rate_rps=spec.rate_rps,
        bursts=[(burst.start_s, burst.duration_s, burst.multiplier) for burst in spec.bursts],
        seed=seed,
    )


def _warped_replay_process(trace: RequestTrace, spec: ArrivalSpec, seed: int) -> RequestTrace:
    """Replayed timestamps passed through a piecewise time-dilation profile."""
    del seed  # warped replay is deterministic
    return warped_replay_arrivals(
        trace,
        spec.times or (),
        phases=[(phase.start_s, phase.factor) for phase in spec.warp],
    )
