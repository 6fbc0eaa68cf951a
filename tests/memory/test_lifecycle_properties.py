"""Property-based leak tests for the KV lifecycle contract.

A seeded random interleaving of reserve / grow / grow_many / preempt /
restore / release must never leak or double-free chunks: after *every*
operation the allocator's books balance against an independently tracked
reference model, and a full drain returns it to pristine state.
Operations that fail (CapacityExceeded, or an unknown id in ``grow_many``)
must leave the allocator untouched.  The reference model keeps its own
free list and takes chunks one ``pop()`` at a time, growing a
``grow_many`` batch request by request in id order, so it also pins every
request's physical placement on the DPA controller (the one allocator that
places chunks): its bulk chunk moves must hand out exactly the chunks n
pops would.  The count-only serving allocator must agree with the DPA
controller on every count after every operation, and fail at the same
operations.
"""

import contextlib
import random
from collections import Counter

import pytest

from repro.core.dpa import DPAController
from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.lifecycle import CapacityExceeded, PreemptedState
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
    if isinstance(allocator, DPAController):
        # The free list and the table hold exactly the counted chunks.
        assert len(allocator._free_chunks) == allocator.free_chunk_count
        assert allocator.table.num_entries == allocator.allocated_chunk_count


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

    def check(self, allocator: DPAController) -> None:
        for request_id, chunks in self.chunks.items():
            assert allocator.table.chunks_of(request_id) == chunks


def snapshot(allocator: ChunkedAllocator) -> tuple:
    return (
        allocator.free_chunk_count,
        allocator.allocated_chunk_count,
        allocator.committed_chunk_count,
        allocator.used_bytes,
        allocator.num_requests,
        allocator.host_interventions,
    )


@pytest.mark.parametrize("seed", range(8))
def test_random_lifecycle_interleaving_never_leaks_chunks(seed):
    rng = random.Random(seed)
    allocator = DPAController(
        capacity_bytes=16 * CHUNK, bytes_per_token=BYTES_PER_TOKEN, chunk_bytes=CHUNK
    )
    live: dict[int, int] = {}  # request_id -> tokens (reference model)
    preempted: dict[int, object] = {}  # request_id -> PreemptedState
    placement = ReferencePlacement(allocator.total_chunks)
    next_id = 0

    for _ in range(600):
        op = rng.choice(["reserve", "grow", "grow", "grow_many", "preempt", "restore", "release"])
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
        elif op == "grow_many" and live:
            growers = rng.sample(sorted(live), rng.randint(1, len(live)))
            if rng.random() < 0.1:
                # An id that is not admitted: the whole call must be refused.
                growers.insert(rng.randrange(len(growers) + 1), next_id)
            count = rng.randint(1, 2 * TOKENS_PER_CHUNK)
            try:
                allocator.grow_many(growers, count)
                for request_id in growers:
                    live[request_id] += count
                    placement.map_tokens(request_id, live[request_id])
            except (CapacityExceeded, KeyError):
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
        op = rng.choice(["reserve", "grow", "grow_many", "preempt", "restore", "release"])
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
        elif op == "grow_many" and live:
            growers = rng.sample(sorted(live), rng.randint(1, len(live)))
            count = rng.randint(1, TOKENS_PER_CHUNK // 2)
            try:
                allocator.grow_many(growers, count)
                for request_id in growers:
                    live[request_id] += count
            except AllocationError:
                # One grower would pass T_max; the books below must show
                # that nothing changed.
                limit = allocator.max_context_tokens
                assert any(live[request_id] + count > limit for request_id in growers)
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


def placement_of(allocator: ChunkedAllocator, request_ids) -> dict[int, list[int]] | None:
    """Each request's physical chunks, or ``None`` on the count-only allocator."""
    if not isinstance(allocator, DPAController):
        return None
    return {request_id: allocator.table.chunks_of(request_id) for request_id in request_ids}


@pytest.mark.parametrize("seed", range(8))
def test_count_only_and_mapping_allocators_agree(seed):
    """One seeded op sequence on both allocators: every count matches, always.

    The count-only serving allocator and the placing DPA controller share
    one accounting implementation, so after every operation they must
    agree on every count, and an operation must fail on both or on neither.
    Unknown ids are mixed in so ``KeyError`` paths are compared too.
    """
    rng = random.Random(seed)
    count_only, mapping = (
        cls(capacity_bytes=16 * CHUNK, bytes_per_token=BYTES_PER_TOKEN, chunk_bytes=CHUNK)
        for cls in (ChunkedAllocator, DPAController)
    )
    live: dict[int, int] = {}
    preempted: dict[int, PreemptedState] = {}
    raised: Counter = Counter()
    next_id = 0

    def apply(operation) -> tuple:
        """Run ``operation`` on both allocators: the same error or the same result.

        A failed operation must leave either allocator untouched.
        """
        outcomes = []
        for allocator in (count_only, mapping):
            before = snapshot(allocator)
            try:
                outcomes.append((None, operation(allocator)))
            except (CapacityExceeded, KeyError) as error:
                outcomes.append((type(error), None))
                assert snapshot(allocator) == before
        assert outcomes[0] == outcomes[1]
        raised[outcomes[0][0]] += 1
        return outcomes[0]

    for _ in range(600):
        op = rng.choice(["reserve", "grow", "grow", "grow_many", "preempt", "restore", "release"])
        # An id that is not admitted, one time in ten: both must refuse it.
        stranger = rng.random() < 0.1
        if op == "reserve":
            initial = rng.randint(1, 3 * TOKENS_PER_CHUNK)
            final = initial + rng.randint(0, 3 * TOKENS_PER_CHUNK) if rng.random() < 0.5 else None
            if apply(lambda a: a.reserve(next_id, initial, final))[0] is None:
                live[next_id] = initial
                next_id += 1
        elif op == "grow" and live:
            victim = next_id if stranger else rng.choice(sorted(live))
            count = rng.randint(1, TOKENS_PER_CHUNK)
            if apply(lambda a: a.grow(victim, count))[0] is None:
                live[victim] += count
        elif op == "grow_many" and live:
            growers = rng.sample(sorted(live), rng.randint(1, len(live)))
            if stranger:
                growers.insert(rng.randrange(len(growers) + 1), next_id)
            count = rng.randint(1, 2 * TOKENS_PER_CHUNK)
            if apply(lambda a: a.grow_many(growers, count))[0] is None:
                for request_id in growers:
                    live[request_id] += count
        elif op == "preempt" and live:
            victim = next_id if stranger else rng.choice(sorted(live))
            error, state = apply(lambda a: a.preempt(victim))
            if error is None:
                assert state.tokens == live.pop(victim)
                preempted[victim] = state
        elif op == "restore" and preempted:
            request_id = rng.choice(sorted(preempted))
            state = preempted[request_id]
            if apply(lambda a: a.restore(request_id, state))[0] is None:
                live[request_id] = preempted.pop(request_id).tokens
        elif op == "release" and live:
            victim = rng.choice(sorted(live))
            apply(lambda a: a.release(victim))
            del live[victim]
        for allocator in (count_only, mapping):
            check_chunked_invariants(allocator, live)
        assert snapshot(count_only) == snapshot(mapping)
        for request_id in (*live, *preempted, next_id):
            assert count_only.committed_chunks_for(request_id) == (
                mapping.committed_chunks_for(request_id)
            )
        assert len(mapping._free_chunks) == count_only.free_chunk_count

    # The sequence reached every failure path it compares.
    assert raised[CapacityExceeded] > 0
    assert raised[KeyError] > 0


def test_grow_many_equals_one_grow_per_request_in_order():
    """Same tokens, commitments, interventions and physical chunks as grows."""
    for cls in (ChunkedAllocator, DPAController):
        bulk, single = (
            cls(capacity_bytes=64 * CHUNK, bytes_per_token=BYTES_PER_TOKEN, chunk_bytes=CHUNK)
            for _ in range(2)
        )
        for allocator in (bulk, single):
            allocator.reserve(0, 10, 10 * TOKENS_PER_CHUNK)  # committed up front
            allocator.reserve(1, TOKENS_PER_CHUNK)  # incremental: grows claim chunks
            allocator.reserve(2, 1)
        order = [2, 0, 1]
        for count in (1, TOKENS_PER_CHUNK, 3 * TOKENS_PER_CHUNK + 5):
            bulk.grow_many(order, count)
            for request_id in order:
                single.grow(request_id, count)
            assert snapshot(bulk) == snapshot(single)
            assert placement_of(bulk, order) == placement_of(single, order)
            for request_id in order:
                assert bulk.committed_chunks_for(request_id) == (
                    single.committed_chunks_for(request_id)
                )


def test_grow_many_capacity_exceeded_is_all_or_nothing():
    for cls in (ChunkedAllocator, DPAController):
        allocator = cls(
            capacity_bytes=4 * CHUNK, bytes_per_token=BYTES_PER_TOKEN, chunk_bytes=CHUNK
        )
        allocator.reserve(0, 1)
        allocator.reserve(1, 1)
        before = snapshot(allocator)
        placement = placement_of(allocator, (0, 1))
        # Each grower alone fits (two free chunks), together they need four.
        with pytest.raises(CapacityExceeded):
            allocator.grow_many([0, 1], 2 * TOKENS_PER_CHUNK)
        assert snapshot(allocator) == before
        assert placement_of(allocator, (0, 1)) == placement
        with pytest.raises(KeyError):
            allocator.grow_many([0, 7], 1)
        assert snapshot(allocator) == before
        assert placement_of(allocator, (0, 1)) == placement


def test_static_grow_many_past_t_max_changes_nothing():
    allocator = StaticAllocator(
        capacity_bytes=8 * CHUNK,
        max_context_tokens=2 * TOKENS_PER_CHUNK,
        bytes_per_token=BYTES_PER_TOKEN,
    )
    allocator.reserve(0, 1)
    allocator.reserve(1, 2 * TOKENS_PER_CHUNK - 2)
    used = allocator.used_bytes
    with pytest.raises(AllocationError):
        allocator.grow_many([0, 1], 3)
    assert allocator.used_bytes == used
    with pytest.raises(KeyError):
        allocator.grow_many([0, 5], 1)
    assert allocator.used_bytes == used
    allocator.grow_many([0, 1], 2)
    assert allocator.used_bytes == used + 4 * BYTES_PER_TOKEN
    assert allocator.preempt(1).tokens == 2 * TOKENS_PER_CHUNK
