"""Tests for the lazy chunked (DPA-style) allocator."""

import pytest

from repro.core.dpa import DPAController
from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.static_alloc import AllocationError


def make_allocator(capacity_chunks: int = 16, chunk_kb: int = 64, bpt: int = 256) -> ChunkedAllocator:
    return ChunkedAllocator(
        capacity_bytes=capacity_chunks * chunk_kb * 1024,
        bytes_per_token=bpt,
        chunk_bytes=chunk_kb * 1024,
    )


class TestAllocation:
    def test_chunks_allocated_on_demand(self):
        allocator = make_allocator()
        allocator.reserve(0, initial_tokens=10)
        assert allocator.allocated_chunk_count == 1
        assert allocator.free_chunk_count == 15

    def test_chunks_needed_rounds_up(self):
        allocator = make_allocator(chunk_kb=64, bpt=256)
        tokens_per_chunk = 64 * 1024 // 256
        assert allocator.chunks_needed(tokens_per_chunk) == 1
        assert allocator.chunks_needed(tokens_per_chunk + 1) == 2
        assert allocator.chunks_needed(0) == 0

    def test_growth_allocates_new_chunk_only_at_boundary(self):
        allocator = make_allocator()
        tokens_per_chunk = allocator.chunk_bytes // allocator.bytes_per_token
        allocator.reserve(0, tokens_per_chunk - 1)
        assert allocator.allocated_chunk_count == 1
        allocator.grow(0, 1)
        assert allocator.allocated_chunk_count == 1
        allocator.grow(0, 1)
        assert allocator.allocated_chunk_count == 2

    def test_admission_fails_when_out_of_chunks(self):
        allocator = make_allocator(capacity_chunks=1)
        tokens_per_chunk = allocator.chunk_bytes // allocator.bytes_per_token
        allocator.reserve(0, tokens_per_chunk)
        with pytest.raises(AllocationError):
            allocator.reserve(1, 1)

    def test_growth_fails_when_out_of_chunks(self):
        allocator = make_allocator(capacity_chunks=1)
        tokens_per_chunk = allocator.chunk_bytes // allocator.bytes_per_token
        allocator.reserve(0, tokens_per_chunk)
        with pytest.raises(AllocationError):
            allocator.grow(0, 1)

    def test_release_returns_chunks_for_reuse(self):
        allocator = make_allocator(capacity_chunks=2)
        tokens_per_chunk = allocator.chunk_bytes // allocator.bytes_per_token
        allocator.reserve(0, 2 * tokens_per_chunk)
        allocator.release(0)
        assert allocator.free_chunk_count == 2
        allocator.reserve(1, 2 * tokens_per_chunk)
        assert allocator.allocated_chunk_count == 2


def make_controller(capacity_chunks: int = 16, chunk_kb: int = 64, bpt: int = 256) -> DPAController:
    return DPAController(
        capacity_bytes=capacity_chunks * chunk_kb * 1024,
        bytes_per_token=bpt,
        chunk_bytes=chunk_kb * 1024,
    )


class TestTranslationIntegration:
    """Physical placement lives in the DPA controller, not the serving allocator."""

    def test_serving_allocator_is_count_only(self):
        allocator = make_allocator()
        allocator.reserve(0, 10)
        assert not hasattr(allocator, "table")
        assert not hasattr(allocator, "_free_chunks")
        assert allocator.allocated_chunk_count == 1

    def test_va2pa_mappings_track_chunks(self):
        allocator = make_controller()
        allocator.reserve(7, allocator.chunk_bytes // allocator.bytes_per_token * 3)
        assert len(allocator.table.chunks_of(7)) == 3

    def test_non_contiguous_physical_chunks_supported(self):
        allocator = make_controller(capacity_chunks=4)
        tokens_per_chunk = allocator.chunk_bytes // allocator.bytes_per_token
        allocator.reserve(0, tokens_per_chunk)
        allocator.reserve(1, tokens_per_chunk)
        allocator.release(0)
        allocator.reserve(2, 2 * tokens_per_chunk)
        chunks = allocator.table.chunks_of(2)
        assert len(chunks) == 2
        assert len(set(chunks)) == 2


class TestUtilization:
    def test_utilization_counts_only_live_tokens(self):
        allocator = make_allocator()
        tokens_per_chunk = allocator.chunk_bytes // allocator.bytes_per_token
        allocator.reserve(0, tokens_per_chunk // 2)
        assert allocator.capacity_utilization == pytest.approx(0.5)
        assert allocator.fragmentation_bytes == allocator.chunk_bytes // 2

    def test_fragmentation_limited_to_last_chunk(self):
        allocator = make_allocator()
        tokens_per_chunk = allocator.chunk_bytes // allocator.bytes_per_token
        allocator.reserve(0, 3 * tokens_per_chunk + 1)
        assert allocator.fragmentation_bytes < allocator.chunk_bytes

    def test_host_interventions_counted(self):
        allocator = make_allocator()
        tokens_per_chunk = allocator.chunk_bytes // allocator.bytes_per_token
        allocator.reserve(0, 10)
        start = allocator.host_interventions
        # Growth within the chunk requires no host involvement.
        allocator.grow(0, 1)
        assert allocator.host_interventions == start
        allocator.grow(0, tokens_per_chunk)
        assert allocator.host_interventions == start + 1
