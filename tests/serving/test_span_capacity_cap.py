"""The span planner's capacity cap equals the numpy bisection it replaced.

``ServingEngine._span_capacity_cap`` finds the longest run of uniform
grows that cannot raise ``CapacityExceeded`` by bisection over plain int
lists.  The oracle is the numpy bisection over ``fits_through`` that
computed it before, kept here as it was; the two are compared on
seeded random allocator states, including states whose demand fills the
allocator exactly at some evaluation and states where even the first
evaluation may fail.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.cent import cent_system_config
from repro.memory.chunked_alloc import ChunkedAllocator
from repro.serving.engine import ServingEngine, _ActiveRequest


def bisection_cap(allocator, decoding, stride, n_max):
    """The cap by bisection over the committed-demand check (the oracle)."""
    bytes_per_token = allocator.bytes_per_token
    chunk_bytes = allocator.chunk_bytes
    total = allocator.total_chunks
    committed = np.array(
        [allocator.committed_chunks_for(entry.request_id) for entry in decoding],
        dtype=np.int64,
    )
    contexts = np.array([entry.context for entry in decoding], dtype=np.int64)
    other = allocator.committed_chunk_count - int(committed.sum())

    def fits_through(j):
        tokens = contexts + (j + 1) * stride
        need = (tokens * bytes_per_token + chunk_bytes - 1) // chunk_bytes
        return int(np.maximum(need, committed).sum()) + other <= total

    if fits_through(n_max - 1):
        return n_max
    if not fits_through(0):
        return 0
    lo, hi = 1, n_max - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if fits_through(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def random_state(rng, fill_at=None, short=0):
    """A chunked allocator with decoding and idle requests, and the batch.

    Some requests hold a legacy commitment past their context, so rooms
    span several chunks.  Capacity leaves a random number of spare chunks,
    or, with ``fill_at = (j, stride)``, exactly the committed demand after
    evaluation ``j`` (plus a partial chunk), less ``short`` chunks.
    Returns ``None`` when that leaves too little for the commitments.
    """
    bytes_per_token = int(rng.integers(1, 300))
    # Chunks of 1..40 tokens, not always a whole number of them.
    chunk_bytes = bytes_per_token * int(rng.integers(1, 41)) + int(rng.integers(0, bytes_per_token))
    batch = int(rng.integers(1, 17))
    requests = []
    for request_id in range(batch + int(rng.integers(0, 4))):
        tokens = int(rng.integers(1, 3000))
        final = tokens + int(rng.integers(0, 4000)) if rng.random() < 0.3 else tokens
        requests.append((request_id, tokens, final))

    def chunks(tokens):
        return -(-(tokens * bytes_per_token) // chunk_bytes)

    committed = sum(chunks(final) for _, _, final in requests)
    if fill_at is None:
        total = committed + int(rng.integers(0, 300))
    else:
        j, stride = fill_at
        total = committed + sum(
            max(0, chunks(tokens + (j + 1) * stride) - chunks(final))
            for _, tokens, final in requests[:batch]
        )
    total -= short
    if total < committed:
        return None
    allocator = ChunkedAllocator(
        capacity_bytes=total * chunk_bytes + int(rng.integers(0, chunk_bytes)),
        bytes_per_token=bytes_per_token,
        chunk_bytes=chunk_bytes,
    )
    order = rng.permutation(len(requests))
    for index in order:
        request_id, tokens, final = requests[index]
        allocator.reserve(request_id, tokens, final)
    decoding = [
        _ActiveRequest(request_id=request_id, context=tokens, remaining=1)
        for request_id, tokens, _ in requests[:batch]
    ]
    return allocator, decoding


@pytest.fixture
def engine(llm_7b):
    return ServingEngine(system=cent_system_config(llm_7b))


def test_cap_equals_the_bisection_on_random_states(engine):
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(600):
        allocator, decoding = random_state(rng)
        stride = int(rng.integers(1, 17))
        n_max = int(rng.choice([2, 3, int(rng.integers(2, 4097)), 4096]))
        expected = bisection_cap(allocator, decoding, stride, n_max)
        assert engine._span_capacity_cap(allocator, decoding, stride, n_max) == expected
        seen.add("zero" if expected == 0 else "full" if expected == n_max else "partial")
    assert seen == {"zero", "full", "partial"}


def test_cap_at_exact_fit_boundaries(engine):
    """Demand fills the allocator exactly after evaluation ``j``: the cap
    runs through ``j`` and stops before the first evaluation that claims
    another chunk."""
    rng = np.random.default_rng(11)
    for _ in range(400):
        j = int(rng.integers(0, 300))
        stride = int(rng.integers(1, 17))
        allocator, decoding = random_state(rng, fill_at=(j, stride))
        n_max = int(rng.integers(j + 2, 4097))
        cap = engine._span_capacity_cap(allocator, decoding, stride, n_max)
        assert cap == bisection_cap(allocator, decoding, stride, n_max)
        assert cap >= j + 1


def test_cap_is_zero_when_the_first_evaluation_may_fail(engine):
    """One chunk short of the first evaluation's demand: nothing may run."""
    rng = np.random.default_rng(5)
    zeros = 0
    for _ in range(300):
        state = random_state(rng, fill_at=(0, 16), short=1)
        if state is None:
            continue  # the first evaluation claims no chunk past the commitments
        allocator, decoding = state
        for n_max in (2, 4096):
            assert engine._span_capacity_cap(allocator, decoding, 16, n_max) == 0
            assert bisection_cap(allocator, decoding, 16, n_max) == 0
        zeros += 1
    assert zeros > 100
