"""Tests for the static (T_max reservation) allocator."""

import pytest

from repro.memory.lifecycle import CapacityExceeded
from repro.memory.static_alloc import AllocationError, StaticAllocator


def make_allocator(capacity_mb: int = 64, max_tokens: int = 1024, bpt: int = 1024) -> StaticAllocator:
    return StaticAllocator(
        capacity_bytes=capacity_mb * 1024 * 1024,
        max_context_tokens=max_tokens,
        bytes_per_token=bpt,
    )


class TestAdmission:
    def test_reservation_is_worst_case(self):
        allocator = make_allocator()
        allocator.reserve(0, initial_tokens=10)
        assert allocator.allocated_bytes == allocator.reservation_bytes
        assert allocator.reservation_bytes == 1024 * 1024

    def test_admission_limited_by_worst_case(self):
        # 64MB capacity / 1MB reservations -> 64 requests regardless of the
        # fact that each request only uses 10 tokens.
        allocator = make_allocator()
        admitted = 0
        while allocator.can_admit():
            allocator.reserve(admitted, initial_tokens=10)
            admitted += 1
        assert admitted == 64

    def test_over_admission_raises(self):
        # "Does not fit now" is transient pressure, the CapacityExceeded
        # signal the serving engine resolves by preemption.
        allocator = make_allocator(capacity_mb=1)
        allocator.reserve(0, 10)
        with pytest.raises(CapacityExceeded):
            allocator.reserve(1, 10)
        allocator.release(0)
        allocator.reserve(1, 10)

    def test_duplicate_admission_rejected(self):
        allocator = make_allocator()
        allocator.reserve(0, 10)
        with pytest.raises(ValueError):
            allocator.reserve(0, 10)

    def test_prompt_longer_than_maximum_rejected(self):
        # Exceeding T_max can never fit, so it is not CapacityExceeded.
        allocator = make_allocator(max_tokens=100)
        with pytest.raises(AllocationError) as excinfo:
            allocator.reserve(0, 101)
        assert not isinstance(excinfo.value, CapacityExceeded)


class TestLifecycle:
    def test_release_frees_reservation(self):
        allocator = make_allocator()
        allocator.reserve(0, 10)
        allocator.release(0)
        assert allocator.allocated_bytes == 0
        assert allocator.num_requests == 0

    def test_append_does_not_grow_reservation(self):
        allocator = make_allocator()
        allocator.reserve(0, 10)
        before = allocator.allocated_bytes
        allocator.grow(0, 50)
        assert allocator.allocated_bytes == before
        assert allocator.used_bytes == 60 * 1024

    def test_append_beyond_maximum_raises(self):
        allocator = make_allocator(max_tokens=100)
        allocator.reserve(0, 90)
        with pytest.raises(AllocationError):
            allocator.grow(0, 20)

    def test_append_unknown_request_raises(self):
        allocator = make_allocator()
        with pytest.raises(KeyError):
            allocator.grow(42)


class TestUtilization:
    def test_utilization_reflects_actual_vs_reserved(self):
        allocator = make_allocator(max_tokens=1000)
        allocator.reserve(0, 350)
        assert allocator.capacity_utilization == pytest.approx(0.35)

    def test_empty_allocator_utilization_zero(self):
        assert make_allocator().capacity_utilization == 0.0
