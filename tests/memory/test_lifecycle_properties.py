"""Property-based leak tests for the KV lifecycle contract.

A seeded random interleaving of reserve / grow / preempt / restore /
release must never leak or double-free chunks: after *every* operation the
allocator's books balance against an independently tracked reference
model, and a full drain returns it to pristine state.  Operations that
fail (CapacityExceeded) must leave the allocator untouched.  The reference
model keeps its own free list and takes chunks one ``pop()`` at a time, so
it also pins every request's physical placement: the allocator's bulk
chunk moves must hand out exactly the chunks n pops would.
"""

import contextlib
import random

import pytest

from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.lifecycle import CapacityExceeded
from repro.memory.static_alloc import AllocationError, StaticAllocator

CHUNK = 1024
BYTES_PER_TOKEN = 16
TOKENS_PER_CHUNK = CHUNK // BYTES_PER_TOKEN


def check_chunked_invariants(allocator: ChunkedAllocator, live: dict[int, int]) -> None:
    """The allocator's books must balance against the reference model."""
    assert allocator.free_chunk_count + allocator.allocated_chunk_count == (
        allocator.total_chunks
    )
    assert allocator.allocated_chunk_count == sum(
        allocator.chunks_needed(tokens) for tokens in live.values()
    )
    assert allocator.used_bytes == sum(live.values()) * BYTES_PER_TOKEN
    assert allocator.num_requests == len(live)
    assert (
        allocator.allocated_chunk_count
        <= allocator.committed_chunk_count
        <= allocator.total_chunks
    )


class ReferencePlacement:
    """One-chunk-per-``pop()`` model of the allocator's free list."""

    def __init__(self, total_chunks: int) -> None:
        self.free = list(range(total_chunks))[::-1]
        self.chunks: dict[int, list[int]] = {}

    def map_tokens(self, request_id: int, tokens: int) -> None:
        """Pop chunks until ``tokens`` of context is backed."""
        chunks = self.chunks.setdefault(request_id, [])
        while len(chunks) * CHUNK < tokens * BYTES_PER_TOKEN:
            chunks.append(self.free.pop())

    def free_request(self, request_id: int) -> None:
        self.free.extend(self.chunks.pop(request_id))

    def check(self, allocator: ChunkedAllocator) -> None:
        for request_id, chunks in self.chunks.items():
            assert allocator.table.chunks_of(request_id) == chunks


def snapshot(allocator: ChunkedAllocator) -> tuple:
    return (
        allocator.free_chunk_count,
        allocator.allocated_chunk_count,
        allocator.committed_chunk_count,
        allocator.used_bytes,
        allocator.num_requests,
    )


@pytest.mark.parametrize("seed", range(8))
def test_random_lifecycle_interleaving_never_leaks_chunks(seed):
    rng = random.Random(seed)
    allocator = ChunkedAllocator(
        capacity_bytes=16 * CHUNK, bytes_per_token=BYTES_PER_TOKEN, chunk_bytes=CHUNK
    )
    live: dict[int, int] = {}  # request_id -> tokens (reference model)
    preempted: dict[int, object] = {}  # request_id -> PreemptedState
    placement = ReferencePlacement(allocator.total_chunks)
    next_id = 0

    for _ in range(600):
        op = rng.choice(["reserve", "grow", "grow", "preempt", "restore", "release"])
        before = snapshot(allocator)
        if op == "reserve":
            initial = rng.randint(1, 3 * TOKENS_PER_CHUNK)
            final = (
                initial + rng.randint(0, 3 * TOKENS_PER_CHUNK)
                if rng.random() < 0.5
                else None  # incremental contract half the time
            )
            try:
                allocator.reserve(next_id, initial, final)
                live[next_id] = initial
                placement.map_tokens(next_id, initial)
                next_id += 1
            except CapacityExceeded:
                assert snapshot(allocator) == before  # failed op: no effect
        elif op == "grow" and live:
            victim = rng.choice(sorted(live))
            count = rng.randint(1, TOKENS_PER_CHUNK)
            try:
                allocator.grow(victim, count)
                live[victim] += count
                placement.map_tokens(victim, live[victim])
            except CapacityExceeded:
                assert snapshot(allocator) == before
        elif op == "preempt" and live:
            victim = rng.choice(sorted(live))
            state = allocator.preempt(victim)
            assert state.tokens == live.pop(victim)
            placement.free_request(victim)
            preempted[victim] = state
        elif op == "restore" and preempted:
            request_id = rng.choice(sorted(preempted))
            state = preempted[request_id]
            try:
                allocator.restore(request_id, state)
                live[request_id] = state.tokens
                placement.map_tokens(request_id, state.tokens)
                del preempted[request_id]
            except CapacityExceeded:
                assert snapshot(allocator) == before
        elif op == "release" and live:
            victim = rng.choice(sorted(live))
            allocator.release(victim)
            del live[victim]
            placement.free_request(victim)
        check_chunked_invariants(allocator, live)
        placement.check(allocator)

    # Full drain: everything live is released, everything paged out stays
    # out; the allocator must return to pristine state.
    for request_id in sorted(live):
        allocator.release(request_id)
    check_chunked_invariants(allocator, {})
    assert allocator.free_chunk_count == allocator.total_chunks
    assert allocator.committed_chunk_count == 0
    assert allocator.host_interventions > 0  # the run actually did work


@pytest.mark.parametrize("seed", range(4))
def test_random_lifecycle_interleaving_static_books_balance(seed):
    rng = random.Random(seed)
    allocator = StaticAllocator(
        capacity_bytes=8 * CHUNK,
        max_context_tokens=2 * TOKENS_PER_CHUNK,
        bytes_per_token=BYTES_PER_TOKEN,
    )
    live: dict[int, int] = {}
    preempted: dict[int, object] = {}
    next_id = 0

    for _ in range(400):
        op = rng.choice(["reserve", "grow", "preempt", "restore", "release"])
        if op == "reserve":
            initial = rng.randint(1, TOKENS_PER_CHUNK)
            with contextlib.suppress(AllocationError):
                allocator.reserve(next_id, initial)
                live[next_id] = initial
                next_id += 1
        elif op == "grow" and live:
            victim = rng.choice(sorted(live))
            # AllocationError here means the static maximum was hit; the
            # reservation is unchanged.
            with contextlib.suppress(AllocationError):
                allocator.grow(victim)
                live[victim] += 1
        elif op == "preempt" and live:
            victim = rng.choice(sorted(live))
            preempted[victim] = allocator.preempt(victim)
            del live[victim]
        elif op == "restore" and preempted:
            request_id = rng.choice(sorted(preempted))
            with contextlib.suppress(CapacityExceeded):
                allocator.restore(request_id, preempted[request_id])
                live[request_id] = preempted.pop(request_id).tokens
        elif op == "release" and live:
            victim = rng.choice(sorted(live))
            allocator.release(victim)
            del live[victim]
        assert allocator.allocated_bytes + allocator.free_bytes == allocator.capacity_bytes
        assert allocator.allocated_bytes == len(live) * allocator.reservation_bytes
        assert allocator.used_bytes == sum(live.values()) * BYTES_PER_TOKEN

    for request_id in sorted(live):
        allocator.release(request_id)
    assert allocator.free_bytes == allocator.capacity_bytes
    assert allocator.num_requests == 0
