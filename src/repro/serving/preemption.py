"""Preemption policies and cost models for the KV lifecycle contract.

When the engine runs under the incremental allocation contract
(:class:`~repro.serving.interfaces.KVLifecycle` with ``reserve`` of only
the current context), a request can hit
:class:`~repro.memory.lifecycle.CapacityExceeded` mid-decode.  The engine
then asks the active :class:`PreemptionPolicy` for a *victim*: an active
request whose chunks are paged out (``allocator.preempt``) so the grower
can continue.  Victims are re-queued through admission and restored
(``allocator.restore``) once capacity frees up, with the page-out /
page-in work priced by a :class:`PreemptionCostModel` and charged to the
simulation clock.

The experiment API lists these policies by name, so specs select them as
``{"preemption": {"policy": "evict-lru"}}`` and new ones plug in with one
:func:`~repro.api.registry.register_preemption_policy` call:

* ``none`` -- never preempt; the engine keeps the legacy
  admit-to-completion contract (final context committed at admission),
  pinning pre-lifecycle behaviour exactly.
* ``evict-lru`` -- evict the request that least recently made decode
  progress (ties: earliest admitted).  Freshly restored requests look
  recently used, so the policy round-robins pressure instead of beating
  one victim forever.
* ``evict-largest`` -- evict the request holding the most context; frees
  the most chunks per eviction, at the cost of penalising long contexts.
* ``evict-youngest`` -- evict the most recently admitted request
  (vLLM-style: the least compute is wasted by rolling back the newest
  work).
* ``evict-priority-lru`` / ``evict-priority-largest`` /
  ``evict-priority-youngest`` -- tier-aware variants: victims are drawn
  from the lowest :attr:`PreemptionCandidate.priority` present, with the
  base discipline breaking ties inside that class.  Best-effort traffic
  therefore absorbs capacity pressure before premium traffic is touched.

Cross-tier fairness: :attr:`PreemptionConfig.starvation_limit` caps how
often any one request may be victimised -- candidates already preempted
that many times are withheld from the policy while other candidates
remain, so a saturating premium flood cannot evict the same best-effort
request forever.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.memory.lifecycle import PREEMPTION_COST_MODES, PreemptedState
from repro.serving.prefill import PrefillModel


@dataclass(frozen=True)
class PreemptionCandidate:
    """One active request as seen by a preemption policy.

    Attributes:
        request_id: The candidate request.
        context_tokens: Live context (KV tokens the eviction would free).
        admitted_s: Clock time of the most recent admission or restore.
        last_decode_s: Clock time of the most recent decode progress.
        priority: Scheduling priority (larger is more urgent); consulted
            by the ``evict-priority-*`` policies.
        preemptions: Times this request has already been evicted; consulted
            by the engine's anti-starvation guard.
    """

    request_id: int
    context_tokens: int
    admitted_s: float
    last_decode_s: float
    priority: int = 0
    preemptions: int = 0


@runtime_checkable
class PreemptionPolicy(Protocol):
    """Picks the victim that resolves a ``CapacityExceeded`` grow."""

    #: Short policy name used in results and reports.
    name: str

    def select(self, candidates: Sequence[PreemptionCandidate]) -> int | None:
        """Return the ``request_id`` to evict, or ``None`` to refuse.

        ``candidates`` never contains the growing request itself (evicting
        it would not let it grow); an empty sequence means nothing can be
        evicted and the engine fails the grow.
        """
        ...


class NoPreemption:
    """Never evict; the engine keeps the admit-to-completion contract."""

    name = "none"

    def select(self, candidates: Sequence[PreemptionCandidate]) -> int | None:
        return None


class EvictLRU:
    """Evict the request that least recently made decode progress."""

    name = "evict-lru"

    def select(self, candidates: Sequence[PreemptionCandidate]) -> int | None:
        if not candidates:
            return None
        victim = min(
            candidates,
            key=lambda c: (c.last_decode_s, c.admitted_s, c.request_id),
        )
        return victim.request_id


class EvictLargest:
    """Evict the request holding the most context (frees the most chunks)."""

    name = "evict-largest"

    def select(self, candidates: Sequence[PreemptionCandidate]) -> int | None:
        if not candidates:
            return None
        victim = max(
            candidates,
            key=lambda c: (c.context_tokens, -c.admitted_s, -c.request_id),
        )
        return victim.request_id


class EvictYoungest:
    """Evict the most recently admitted request (least compute wasted)."""

    name = "evict-youngest"

    def select(self, candidates: Sequence[PreemptionCandidate]) -> int | None:
        if not candidates:
            return None
        victim = max(
            candidates,
            key=lambda c: (c.admitted_s, c.request_id),
        )
        return victim.request_id


class EvictPriorityLRU:
    """Evict the least-recently-active request of the lowest priority class.

    Victim order is lexicographic: lowest :attr:`PreemptionCandidate.priority`
    first, then least recent decode progress (the :class:`EvictLRU`
    discipline) inside that class -- so premium requests are only touched
    once no lower-priority candidate remains.
    """

    name = "evict-priority-lru"

    def select(self, candidates: Sequence[PreemptionCandidate]) -> int | None:
        if not candidates:
            return None
        victim = min(
            candidates,
            key=lambda c: (c.priority, c.last_decode_s, c.admitted_s, c.request_id),
        )
        return victim.request_id


class EvictPriorityLargest:
    """Evict the largest-context request of the lowest priority class."""

    name = "evict-priority-largest"

    def select(self, candidates: Sequence[PreemptionCandidate]) -> int | None:
        if not candidates:
            return None
        victim = min(
            candidates,
            key=lambda c: (c.priority, -c.context_tokens, c.admitted_s, c.request_id),
        )
        return victim.request_id


class EvictPriorityYoungest:
    """Evict the most recently admitted request of the lowest priority class."""

    name = "evict-priority-youngest"

    def select(self, candidates: Sequence[PreemptionCandidate]) -> int | None:
        if not candidates:
            return None
        victim = min(
            candidates,
            key=lambda c: (c.priority, -c.admitted_s, -c.request_id),
        )
        return victim.request_id


@dataclass(frozen=True)
class PreemptionCostModel:
    """Prices page-out and page-in work on the simulation clock.

    Two disciplines:

    * ``"swap"`` -- the victim's live KV bytes are copied to host memory
      at eviction and back at restore, both at ``swap_bandwidth_bytes_per_s``
      (PCIe/CXL-style paging; the KV survives, nothing is recomputed).
    * ``"recompute"`` -- eviction just drops the chunks (free); the restore
      re-runs prefill over the victim's saved context.  The engine charges
      the configured prefill model when one is attached, falling back to
      ``recompute_per_token_s`` per token otherwise, and reports the
      re-prefilled tokens as ``recompute_tokens``.
    """

    mode: str = "recompute"
    swap_bandwidth_bytes_per_s: float = 64e9
    recompute_per_token_s: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in PREEMPTION_COST_MODES:
            raise ValueError(f"mode must be one of {PREEMPTION_COST_MODES}, got {self.mode!r}")
        if self.swap_bandwidth_bytes_per_s <= 0:
            raise ValueError("swap_bandwidth_bytes_per_s must be positive")
        if self.recompute_per_token_s < 0:
            raise ValueError("recompute_per_token_s must be non-negative")

    def evict_seconds(self, state: PreemptedState) -> float:
        """Clock charge for paging a victim out."""
        if self.mode == "swap":
            return state.kv_bytes / self.swap_bandwidth_bytes_per_s
        return 0.0

    def restore_seconds(
        self,
        state: PreemptedState,
        prefill_model: PrefillModel | None = None,
        cached_tokens: int = 0,
    ) -> float:
        """Clock charge for bringing a victim back.

        ``cached_tokens`` is the prefix a
        :class:`~repro.serving.prefix_cache.PrefixCache` still holds for
        the victim's session: recompute-mode restores re-prefill only the
        uncached suffix (swap restores page the full KV either way).
        """
        if self.mode == "swap":
            return state.kv_bytes / self.swap_bandwidth_bytes_per_s
        cached = min(max(cached_tokens, 0), state.tokens)
        if prefill_model is not None:
            return prefill_model.cumulative_seconds(
                state.tokens
            ) - prefill_model.cumulative_seconds(cached)
        return self.recompute_per_token_s * (state.tokens - cached)

    def restore_recompute_tokens(self, state: PreemptedState, cached_tokens: int = 0) -> int:
        """Tokens re-prefilled by a restore (zero under swap)."""
        if self.mode != "recompute":
            return 0
        return state.tokens - min(max(cached_tokens, 0), state.tokens)


@dataclass(frozen=True)
class PreemptionConfig:
    """Preemption behaviour of one serving engine: policy plus cost model.

    Attaching a config whose policy is not ``"none"`` flips the engine to
    the incremental lifecycle contract: admission checks the *prompt*
    instead of the final context, requests grow chunk by chunk, and
    capacity pressure is resolved by evicting victims instead of refusing
    admissions.

    ``starvation_limit`` is the cross-tier anti-starvation knob: before
    the policy sees the candidate list, the engine withholds requests
    already preempted ``starvation_limit`` or more times -- unless every
    candidate is over the limit, in which case the full list is offered so
    a grow never fails purely because of the guard.  ``None`` disables the
    guard (bit-compatible with pre-tier victim selection).
    """

    policy: PreemptionPolicy
    cost: PreemptionCostModel = PreemptionCostModel()
    starvation_limit: int | None = None

    def __post_init__(self) -> None:
        if self.starvation_limit is not None and (
            not isinstance(self.starvation_limit, int)
            or isinstance(self.starvation_limit, bool)
            or self.starvation_limit <= 0
        ):
            raise ValueError(
                f"starvation_limit must be a positive integer or None, "
                f"got {self.starvation_limit!r}"
            )

    @property
    def active(self) -> bool:
        """Whether this config actually preempts (policy is not "none")."""
        return self.policy.name != NoPreemption.name

    def eligible(self, candidates: Sequence[PreemptionCandidate]) -> Sequence[PreemptionCandidate]:
        """Apply the anti-starvation guard to a candidate list."""
        if self.starvation_limit is None:
            return candidates
        fresh = [c for c in candidates if c.preemptions < self.starvation_limit]
        return fresh if fresh else candidates


__all__ = [
    "PREEMPTION_COST_MODES",
    "PreemptionCandidate",
    "PreemptionPolicy",
    "NoPreemption",
    "EvictLRU",
    "EvictLargest",
    "EvictYoungest",
    "EvictPriorityLRU",
    "EvictPriorityLargest",
    "EvictPriorityYoungest",
    "PreemptionCostModel",
    "PreemptionConfig",
]
