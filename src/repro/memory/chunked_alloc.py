"""Lazy, chunk-granular KV-cache allocation enabled by DPA (Sec. VI).

Instead of reserving ``T_max`` per request, memory is handed out in fixed
chunks (1MB by default, matching the paper) on demand as a request's KV
cache grows.  Internal fragmentation is limited to the final, partially
filled chunk of each request, which raises capacity utilisation to ~75% on
the paper's workloads (Fig. 19 with DPA).

The allocator implements the full request-lifecycle contract
(:class:`~repro.serving.interfaces.KVLifecycle`): ``reserve`` without a
``final_tokens`` commitment admits a request against only its *current*
context (true incremental allocation), ``grow`` raises
:class:`~repro.memory.lifecycle.CapacityExceeded` when the chunks run out
mid-decode, and ``preempt``/``restore`` page a victim's chunks out and
back in so a preemption policy can resolve the pressure.  Passing
``final_tokens`` keeps the legacy admit-to-completion guarantee: the final
context is committed up front and growth inside it never fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.lifecycle import CapacityExceeded, PreemptedState
from repro.memory.va2pa import VA2PATable

DEFAULT_CHUNK_BYTES = 1 * 1024 * 1024
"""Default allocation chunk size (1MB, as in the paper)."""


@dataclass
class ChunkedAllocator:
    """On-demand chunk allocator backed by a VA2PA translation table.

    Attributes:
        capacity_bytes: Total bytes available for KV cache.
        bytes_per_token: KV bytes appended per token.
        chunk_bytes: Allocation granularity.
    """

    capacity_bytes: int
    bytes_per_token: int
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    _table: VA2PATable = field(init=False, repr=False)
    _free_chunks: list[int] = field(init=False, repr=False)
    _tokens: dict[int, int] = field(default_factory=dict, repr=False)
    _committed: dict[int, int] = field(default_factory=dict, repr=False)
    _committed_total: int = field(default=0, repr=False)
    host_interventions: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if self.bytes_per_token <= 0 or self.chunk_bytes <= 0:
            raise ValueError("bytes_per_token and chunk_bytes must be positive")
        self._table = VA2PATable(chunk_bytes=self.chunk_bytes)
        self._free_chunks = list(range(self.capacity_bytes // self.chunk_bytes))[::-1]

    # -- sizing helpers ---------------------------------------------------

    @property
    def total_chunks(self) -> int:
        return self.capacity_bytes // self.chunk_bytes

    @property
    def free_chunk_count(self) -> int:
        return len(self._free_chunks)

    @property
    def allocated_chunk_count(self) -> int:
        return self.total_chunks - self.free_chunk_count

    @property
    def allocated_bytes(self) -> int:
        return self.allocated_chunk_count * self.chunk_bytes

    @property
    def table(self) -> VA2PATable:
        """The VA2PA translation table maintained by the dispatcher."""
        return self._table

    def chunks_needed(self, tokens: int) -> int:
        """Chunks required to back ``tokens`` worth of KV cache."""
        if tokens <= 0:
            return 0
        return -(-(tokens * self.bytes_per_token) // self.chunk_bytes)

    @property
    def committed_chunk_count(self) -> int:
        """Chunks promised to live requests (mapped now or reserved for growth)."""
        return self._committed_total

    @property
    def uncommitted_chunk_count(self) -> int:
        """Chunks available for new reservations."""
        return self.total_chunks - self.committed_chunk_count

    def committed_chunks_for(self, request_id: int) -> int:
        """Chunks currently committed to one admitted request (0 if unknown).

        Exposed so schedulers (the fast engine's span planner) can predict
        whether a run of uniform grows can possibly raise
        :class:`CapacityExceeded` without mutating allocator state.
        """
        return self._committed.get(request_id, 0)

    def can_admit(self, tokens: int) -> bool:
        """Whether a request needing ``tokens`` of context fits right now.

        Admission is checked against the *uncommitted* capacity.  Under the
        legacy contract, ``tokens`` is the request's final context and
        pairing with :meth:`reserve` of the same value guarantees no
        mid-decode failure.  Under the incremental lifecycle contract,
        ``tokens`` is the request's *current* context and growth past it
        may raise :class:`CapacityExceeded`, to be resolved by preemption.
        """
        return self.chunks_needed(tokens) <= self.uncommitted_chunk_count

    def could_ever_fit(self, tokens: int) -> bool:
        """Whether ``tokens`` of context fits an *empty* allocator at all."""
        return self.chunks_needed(tokens) <= self.total_chunks

    # -- allocation lifecycle ----------------------------------------------

    def _map(self, request_id: int, count: int) -> None:
        """Move ``count`` free chunks to the end of a request's VA2PA list.

        One slice takes the same chunks, in the same order, as ``count``
        successive ``pop()``s would, so placement does not depend on how a
        request's growth is batched.
        """
        if count > 0:
            free = self._free_chunks
            self._table.extend(request_id, free[-count:][::-1])
            del free[-count:]

    def reserve(
        self, request_id: int, initial_tokens: int, final_tokens: int | None = None
    ) -> None:
        """Admit a request, mapping chunks for its current prefix.

        With ``final_tokens`` (the legacy admit-to-completion contract) the
        remainder up to the final context is *committed* up front and
        materialises lazily as the request grows -- growth inside the
        commitment never fails.  Without it (the incremental lifecycle
        contract) only ``initial_tokens`` is committed, and :meth:`grow`
        claims further chunks on demand, which may raise
        :class:`CapacityExceeded` under pressure.

        Raises:
            CapacityExceeded: if the committed context does not fit.
        """
        if request_id in self._tokens:
            raise ValueError(f"request {request_id} already admitted")
        if final_tokens is None:
            final_tokens = initial_tokens
        if final_tokens < initial_tokens:
            raise ValueError("final_tokens must be >= initial_tokens")
        committed = self.chunks_needed(final_tokens)
        if committed > self.uncommitted_chunk_count:
            raise CapacityExceeded("insufficient free chunks to admit request")
        self._map(request_id, self.chunks_needed(initial_tokens))
        self._tokens[request_id] = initial_tokens
        self._committed[request_id] = committed
        self._committed_total += committed
        self.host_interventions += 1

    def grow(self, request_id: int, count: int = 1) -> None:
        """Grow a request's KV cache, allocating a new chunk when needed.

        Growth within the request's commitment always succeeds; growth past
        it must claim uncommitted chunks.

        Raises:
            CapacityExceeded: if a new chunk is required but none is free --
                the signal a preemption policy resolves by evicting a victim.
        """
        if request_id not in self._tokens:
            raise KeyError(f"request {request_id} is not admitted")
        current = self._tokens[request_id]
        have = self.chunks_needed(current)
        need = self.chunks_needed(current + count)
        committed = self._committed[request_id]
        if need > committed:
            if need - committed > self.uncommitted_chunk_count:
                raise CapacityExceeded("out of chunks while growing the KV cache")
            self._committed[request_id] = need
            self._committed_total += need - committed
        if need > have:
            self._map(request_id, need - have)
            self.host_interventions += 1
        self._tokens[request_id] = current + count

    # Kept only as a name: perfbench/layers.py patches it on the class, and the
    # frozen legacy oracle in tests/serving/test_parity.py calls it.
    append_token = grow

    def preempt(self, request_id: int) -> PreemptedState:
        """Page a request out: free its chunks and return a restore receipt.

        Raises:
            KeyError: if the request is not admitted.
        """
        if request_id not in self._tokens:
            raise KeyError(f"request {request_id} is not admitted")
        self._free_chunks.extend(self._table.release(request_id))
        tokens = self._tokens.pop(request_id)
        committed = self._committed.pop(request_id)
        self._committed_total -= committed
        self.host_interventions += 1
        return PreemptedState(
            request_id=request_id,
            tokens=tokens,
            kv_bytes=tokens * self.bytes_per_token,
            committed_chunks=committed,
        )

    def restore(self, request_id: int, state: PreemptedState) -> None:
        """Re-admit a preempted request with exactly what it held.

        Chunks for ``state.tokens`` are mapped again and the commitment is
        re-established at its pre-preemption level, so a request admitted
        through the legacy reserve-to-final contract resumes with the same
        no-mid-decode-failure guarantee.

        Raises:
            CapacityExceeded: if the restored reservation does not fit yet.
        """
        if request_id in self._tokens:
            raise ValueError(f"request {request_id} already admitted")
        mapped = self.chunks_needed(state.tokens)
        committed = max(mapped, state.committed_chunks)
        if committed > self.uncommitted_chunk_count:
            raise CapacityExceeded("insufficient free chunks to restore request")
        self._map(request_id, mapped)
        self._tokens[request_id] = state.tokens
        self._committed[request_id] = committed
        self._committed_total += committed
        self.host_interventions += 1

    def release(self, request_id: int) -> None:
        """Free every chunk owned by or committed to a request."""
        if request_id not in self._tokens:
            return
        self._free_chunks.extend(self._table.release(request_id))
        del self._tokens[request_id]
        self._committed_total -= self._committed.pop(request_id)
        self.host_interventions += 1

    # -- metrics ------------------------------------------------------------

    @property
    def num_requests(self) -> int:
        return len(self._tokens)

    @property
    def used_bytes(self) -> int:
        """Bytes backing live tokens (excludes last-chunk fragmentation)."""
        return sum(tokens * self.bytes_per_token for tokens in self._tokens.values())

    @property
    def capacity_utilization(self) -> float:
        """Live-token bytes divided by allocated bytes (Fig. 19 metric)."""
        allocated = self.allocated_bytes
        if allocated == 0:
            return 0.0
        return self.used_bytes / allocated

    @property
    def fragmentation_bytes(self) -> int:
        """Bytes allocated but not backing live tokens."""
        return self.allocated_bytes - self.used_bytes
