"""Per-replica prefix/KV-cache reuse for multi-turn serving.

Session-affinity routing (PR 2) pins a conversation's turns to one
replica, but until this module nothing on that replica remembered the
session's KV state: every follow-up turn -- and every recompute-mode
restore -- re-prefilled its entire prompt from scratch.  A
:class:`PrefixCache` closes that gap the way vLLM's shared prefix blocks
and SGLang's radix tree do in production serving: the KV prefix a
finished turn leaves behind is retained (up to a token budget) and the
next request that extends it is charged only for its *uncached suffix*.

The simulator identifies prefixes by session id rather than by literal
token content: requests carry no token ids, and within a
:func:`~repro.workloads.traces.multi_turn_trace` session each turn's
prompt is by construction the previous turn's full context plus new user
tokens -- exactly the longest-shared-prefix relation a radix lookup would
discover.  A cache entry therefore stores the longest context this
replica has completed for the session, and a lookup for a prompt of
``P`` tokens reuses ``min(entry_tokens, P)`` of it.

Capacity is counted in KV *tokens* (the unit the allocators and cost
models already speak) and enforced with LRU eviction over whole
sessions.  The cache deliberately does not take chunks away from the
decode allocator: it models a dedicated slice of HBM set aside for
prefix retention, so enabling it never changes admission or preemption
decisions -- only prefill and restore charges.  With the cache disabled
the engine's arithmetic is bit-identical to the PR 4 behaviour, which
``tests/api/test_prefix_cache_spec.py`` pins.

Counters (hits, misses, hit tokens, evictions) are monotonic over the
cache's lifetime; the engine reports per-run deltas.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass(frozen=True)
class PrefixCacheStats:
    """Point-in-time snapshot of one :class:`PrefixCache`'s counters.

    Attributes:
        hits: Lookups that found a reusable prefix (any positive overlap).
        misses: Lookups that found nothing for the session.
        hit_tokens: Prefix tokens discounted across all hits.
        evictions: Entries evicted by the LRU capacity policy.
        evicted_tokens: KV tokens those evictions freed.
        entries: Sessions currently cached.
        stored_tokens: KV tokens currently held.
    """

    hits: int
    misses: int
    hit_tokens: int
    evictions: int
    evicted_tokens: int
    entries: int
    stored_tokens: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class PrefixCache:
    """LRU store of per-session KV prefixes, capacity-bounded in tokens.

    Attributes:
        capacity_tokens: Token budget shared by all entries; ``None``
            disables eviction (unbounded retention).  An entry larger
            than the whole budget is truncated to it -- a prefix of a
            prefix is still a valid prefix.
    """

    def __init__(self, capacity_tokens: int | None = None) -> None:
        if capacity_tokens is not None and capacity_tokens < 1:
            raise ValueError(
                f"capacity_tokens must be >= 1 or None (unbounded), got {capacity_tokens}"
            )
        self.capacity_tokens = capacity_tokens
        #: Session key -> cached prefix length; insertion order is LRU order.
        self._entries: OrderedDict[int, int] = OrderedDict()
        self._stored_tokens = 0
        self.hits = 0
        self.misses = 0
        self.hit_tokens = 0
        self.evictions = 0
        self.evicted_tokens = 0

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    @property
    def stored_tokens(self) -> int:
        """KV tokens currently retained across all sessions."""
        return self._stored_tokens

    def cached_tokens(self, key: int) -> int:
        """Cached prefix length for ``key`` without touching counters or LRU."""
        return self._entries.get(key, 0)

    def stats(self) -> PrefixCacheStats:
        return PrefixCacheStats(
            hits=self.hits,
            misses=self.misses,
            hit_tokens=self.hit_tokens,
            evictions=self.evictions,
            evicted_tokens=self.evicted_tokens,
            entries=len(self._entries),
            stored_tokens=self._stored_tokens,
        )

    # -- the cache protocol --------------------------------------------------

    def lookup(self, key: int, prompt_tokens: int) -> int:
        """Reusable prefix tokens for a prompt of ``prompt_tokens`` in session ``key``.

        A positive return is a *hit*: the first ``n`` tokens of the prompt
        are already resident and need no prefill (``n`` never exceeds the
        prompt itself).  Hits refresh the entry's LRU position; misses
        count but change nothing.
        """
        if prompt_tokens <= 0:
            raise ValueError(f"prompt_tokens must be positive, got {prompt_tokens}")
        cached = self._entries.get(key)
        if cached is None:
            self.misses += 1
            return 0
        self._entries.move_to_end(key)
        usable = min(cached, prompt_tokens)
        self.hits += 1
        self.hit_tokens += usable
        return usable

    def insert(self, key: int, tokens: int) -> None:
        """Retain a ``tokens``-long context as session ``key``'s prefix.

        A session's prefix only ever extends (a shorter insert refreshes
        LRU but never shrinks the entry).  The entry is truncated to the
        whole capacity budget if it alone exceeds it; other entries are
        evicted LRU-first until the budget holds.
        """
        if tokens <= 0:
            raise ValueError(f"tokens must be positive, got {tokens}")
        if self.capacity_tokens is not None:
            tokens = min(tokens, self.capacity_tokens)
        existing = self._entries.get(key, 0)
        new_tokens = max(existing, tokens)
        self._entries[key] = new_tokens
        self._entries.move_to_end(key)
        self._stored_tokens += new_tokens - existing
        if self.capacity_tokens is not None:
            while self._stored_tokens > self.capacity_tokens:
                victim, victim_tokens = next(iter(self._entries.items()))
                # The freshly inserted key is MRU, so the loop always
                # terminates: everything else drains first, and the entry
                # itself was truncated to the budget above.
                assert victim != key
                del self._entries[victim]
                self._stored_tokens -= victim_tokens
                self.evictions += 1
                self.evicted_tokens += victim_tokens

    def invalidate(self, key: int) -> int:
        """Drop session ``key``'s prefix (no-op when absent); returns tokens freed.

        Not an LRU eviction: the counters record only capacity-driven
        evictions, so explicit invalidation stays distinguishable.
        """
        tokens = self._entries.pop(key, 0)
        self._stored_tokens -= tokens
        return tokens

    def clear(self) -> None:
        """Drop every entry, keeping the lifetime counters."""
        self._entries.clear()
        self._stored_tokens = 0


__all__ = ["PrefixCache", "PrefixCacheStats"]
