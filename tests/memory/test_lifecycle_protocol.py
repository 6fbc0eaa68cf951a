"""Conformance tests for the KVLifecycle contract across all allocators.

Parametrised over every allocator implementation (StaticAllocator,
ChunkedAllocator, DPAController) so signature drift between the concrete
classes and the protocol in ``repro.serving.interfaces`` fails loudly.
"""

import inspect

import pytest

from repro.core.dpa import DPAController
from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.lifecycle import CapacityExceeded, PreemptedState
from repro.memory.static_alloc import AllocationError, StaticAllocator
from repro.serving.interfaces import KVLifecycle

CHUNK = 1024
BYTES_PER_TOKEN = 16
TOKENS_PER_CHUNK = CHUNK // BYTES_PER_TOKEN  # 64


def make_static(chunks=8):
    return StaticAllocator(
        capacity_bytes=chunks * CHUNK,
        max_context_tokens=2 * TOKENS_PER_CHUNK,  # two requests fit at 8 chunks
        bytes_per_token=BYTES_PER_TOKEN,
    )


def make_chunked(chunks=8):
    return ChunkedAllocator(
        capacity_bytes=chunks * CHUNK,
        bytes_per_token=BYTES_PER_TOKEN,
        chunk_bytes=CHUNK,
    )


def make_dpa(chunks=8):
    return DPAController(
        capacity_bytes=chunks * CHUNK,
        bytes_per_token=BYTES_PER_TOKEN,
        chunk_bytes=CHUNK,
    )


ALLOCATORS = [
    pytest.param(make_static, id="static"),
    pytest.param(make_chunked, id="chunked"),
    pytest.param(make_dpa, id="dpa"),
]


@pytest.mark.parametrize("factory", ALLOCATORS)
class TestProtocolConformance:
    def test_satisfies_lifecycle_protocol(self, factory):
        allocator = factory()
        assert isinstance(allocator, KVLifecycle)

    def test_signatures_are_aligned(self, factory):
        """The satellite fix: no more final_tokens/tokens parameter drift."""
        allocator = factory()
        can_admit = inspect.signature(allocator.can_admit)
        assert next(iter(can_admit.parameters)) == "tokens"
        reserve = inspect.signature(allocator.reserve)
        assert list(reserve.parameters) == ["request_id", "initial_tokens", "final_tokens"]
        assert reserve.parameters["final_tokens"].default is None
        grow = inspect.signature(allocator.grow)
        assert list(grow.parameters) == ["request_id", "count"]
        assert grow.parameters["count"].default == 1
        assert list(inspect.signature(allocator.preempt).parameters) == ["request_id"]
        assert list(inspect.signature(allocator.restore).parameters) == [
            "request_id",
            "state",
        ]

    def test_reserve_grow_release_round_trip(self, factory):
        allocator = factory()
        assert allocator.can_admit(TOKENS_PER_CHUNK)
        allocator.reserve(0, TOKENS_PER_CHUNK)
        allocator.grow(0, 4)
        assert allocator.num_requests == 1
        assert allocator.used_bytes == (TOKENS_PER_CHUNK + 4) * BYTES_PER_TOKEN
        allocator.release(0)
        assert allocator.num_requests == 0
        assert allocator.used_bytes == 0

    def test_preempt_restore_round_trip(self, factory):
        allocator = factory()
        allocator.reserve(0, TOKENS_PER_CHUNK)
        allocator.grow(0, 3)
        state = allocator.preempt(0)
        assert isinstance(state, PreemptedState)
        assert state.request_id == 0
        assert state.tokens == TOKENS_PER_CHUNK + 3
        assert state.kv_bytes == state.tokens * BYTES_PER_TOKEN
        assert allocator.num_requests == 0
        assert allocator.used_bytes == 0
        allocator.restore(0, state)
        assert allocator.num_requests == 1
        assert allocator.used_bytes == state.tokens * BYTES_PER_TOKEN
        allocator.grow(0)  # restored requests keep growing
        allocator.release(0)

    def test_preempt_unknown_request_raises_key_error(self, factory):
        with pytest.raises(KeyError):
            factory().preempt(42)

    def test_restore_into_full_allocator_raises_capacity_exceeded(self, factory):
        allocator = factory(chunks=4)
        allocator.reserve(0, TOKENS_PER_CHUNK)
        state = allocator.preempt(0)
        # Fill the allocator to the brim, then try to bring the victim back.
        allocator.reserve(1, 2 * TOKENS_PER_CHUNK, 2 * TOKENS_PER_CHUNK)
        allocator.reserve(2, 2 * TOKENS_PER_CHUNK, 2 * TOKENS_PER_CHUNK)
        with pytest.raises(CapacityExceeded):
            allocator.restore(0, state)
        # CapacityExceeded is an AllocationError: legacy handlers still work.
        with pytest.raises(AllocationError):
            allocator.restore(0, state)
        allocator.release(1)
        allocator.restore(0, state)  # now it fits again
        assert allocator.num_requests == 2


class TestIncrementalChunkedContract:
    def test_reserve_without_final_commits_only_the_prefix(self):
        allocator = make_chunked(chunks=8)
        allocator.reserve(0, TOKENS_PER_CHUNK)  # one chunk, no more
        assert allocator.committed_chunk_count == 1
        assert allocator.allocated_chunk_count == 1
        # The other 7 chunks stay admittable -- unlike the legacy contract,
        # which would have committed the final context up front.
        assert allocator.can_admit(7 * TOKENS_PER_CHUNK)

    def test_grow_raises_capacity_exceeded_when_chunks_run_out(self):
        allocator = make_chunked(chunks=2)
        allocator.reserve(0, TOKENS_PER_CHUNK)
        allocator.reserve(1, TOKENS_PER_CHUNK)
        with pytest.raises(CapacityExceeded):
            allocator.grow(0)
        # The failed grow must not corrupt state: request 0 still holds
        # exactly one chunk and a release drains cleanly.
        assert allocator.allocated_chunk_count == 2
        allocator.release(0)
        allocator.grow(1)  # now there is a free chunk
        allocator.release(1)
        assert allocator.free_chunk_count == 2

    def test_restore_reinstates_legacy_commitment(self):
        allocator = make_chunked(chunks=8)
        allocator.reserve(0, TOKENS_PER_CHUNK, 4 * TOKENS_PER_CHUNK)
        state = allocator.preempt(0)
        assert state.committed_chunks == 4
        allocator.restore(0, state)
        assert allocator.committed_chunk_count == 4
        # Growth within the restored commitment cannot fail, even with the
        # rest of the allocator committed elsewhere.
        allocator.reserve(1, 4 * TOKENS_PER_CHUNK, 4 * TOKENS_PER_CHUNK)
        allocator.grow(0, 3 * TOKENS_PER_CHUNK)
        assert allocator.allocated_chunk_count == 8

    def test_static_grow_never_raises_capacity_exceeded(self):
        allocator = make_static(chunks=8)
        allocator.reserve(0, 1)
        # In-window growth is covered by the T_max reservation...
        allocator.grow(0, 2 * TOKENS_PER_CHUNK - 1)
        # ...and past-window growth is a contract violation, not pressure.
        with pytest.raises(AllocationError) as excinfo:
            allocator.grow(0)
        assert not isinstance(excinfo.value, CapacityExceeded)

    def test_could_ever_fit_distinguishes_pressure_from_impossible(self):
        allocator = make_chunked(chunks=4)
        allocator.reserve(0, 4 * TOKENS_PER_CHUNK)  # full
        assert not allocator.can_admit(TOKENS_PER_CHUNK)  # transient pressure
        assert allocator.could_ever_fit(4 * TOKENS_PER_CHUNK)
        assert not allocator.could_ever_fit(5 * TOKENS_PER_CHUNK)  # impossible
