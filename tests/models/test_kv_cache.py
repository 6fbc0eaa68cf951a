"""Tests for KV-cache sizing helpers."""

import pytest

from repro.models.kv_cache import (
    kv_bytes_per_token,
    kv_cache_bytes,
    max_batch_for_capacity,
)


class TestSizing:
    def test_linear_in_context_and_batch(self, llm_7b):
        single = kv_cache_bytes(llm_7b, 1000, 1)
        assert kv_cache_bytes(llm_7b, 2000, 1) == 2 * single
        assert kv_cache_bytes(llm_7b, 1000, 4) == 4 * single

    def test_matches_per_token_rate(self, llm_7b):
        assert kv_cache_bytes(llm_7b, 123, 1) == 123 * kv_bytes_per_token(llm_7b)

    def test_negative_inputs_rejected(self, llm_7b):
        with pytest.raises(ValueError):
            kv_cache_bytes(llm_7b, -1, 1)


class TestMaxBatch:
    def test_reserving_params_reduces_batch(self, llm_7b):
        capacity = 128 * 1024**3
        with_params = max_batch_for_capacity(llm_7b, capacity, 32 * 1024, reserve_params=True)
        without_params = max_batch_for_capacity(llm_7b, capacity, 32 * 1024, reserve_params=False)
        assert 0 < with_params <= without_params

    def test_zero_when_params_exceed_capacity(self, llm_72b):
        assert max_batch_for_capacity(llm_72b, 8 * 1024**3, 1024) == 0

    def test_longer_context_admits_fewer_requests(self, llm_7b):
        capacity = 128 * 1024**3
        short = max_batch_for_capacity(llm_7b, capacity, 4 * 1024)
        long = max_batch_for_capacity(llm_7b, capacity, 32 * 1024)
        assert short > long

    def test_zero_context_rejected(self, llm_7b):
        with pytest.raises(ValueError):
            max_batch_for_capacity(llm_7b, 128 * 1024**3, 0)
