"""PrefixCache unit tests plus engine-level prefix-reuse behaviour."""

from dataclasses import dataclass

import pytest

from repro.serving.engine import serve
from repro.serving.interfaces import StepResult
from repro.serving.preemption import EvictLRU, PreemptionConfig, PreemptionCostModel
from repro.serving.prefill import LinearPrefillModel, PrefillConfig
from repro.serving.prefix_cache import PrefixCache
from repro.workloads.traces import Request, RequestTrace, multi_turn_trace

CHUNK = 1024 * 1024


@dataclass
class FlatSystem:
    """Constant-latency system; paged, roomy enough for no preemption."""

    kv_capacity_bytes: int = 2048 * CHUNK
    kv_bytes_per_token: int = CHUNK // 2
    max_context_tokens: int = 4096
    step_seconds: float = 0.01

    @property
    def dynamic_memory(self) -> bool:
        return True

    @property
    def total_pim_channels(self) -> int:
        return 0

    def decode_step(self, context_lengths) -> StepResult:
        if not context_lengths:
            return StepResult(seconds=0.0, pim_utilization=0.0)
        return StepResult(seconds=self.step_seconds, pim_utilization=0.0)


def two_turn_trace(first_prompt=100, output=10, followup=40, gap_s=100.0):
    """One session, two turns; the second prompt extends the first context."""
    second_prompt = first_prompt + output + followup
    return RequestTrace(
        dataset="two-turn",
        requests=(
            Request(request_id=0, prompt_tokens=first_prompt, output_tokens=output,
                    arrival_s=0.0, session=0),
            Request(request_id=1, prompt_tokens=second_prompt, output_tokens=output,
                    arrival_s=gap_s, session=0),
        ),
    )


class TestPrefixCacheUnit:
    def test_miss_then_hit_counters(self):
        cache = PrefixCache()
        assert cache.lookup(7, 100) == 0
        assert (cache.hits, cache.misses) == (0, 1)
        cache.insert(7, 80)
        assert cache.lookup(7, 100) == 80
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_tokens == 80
        assert cache.stats().hit_rate == pytest.approx(0.5)

    def test_lookup_clamps_to_prompt(self):
        cache = PrefixCache()
        cache.insert(1, 500)
        assert cache.lookup(1, 200) == 200
        assert cache.hit_tokens == 200

    def test_insert_extends_but_never_shrinks(self):
        cache = PrefixCache()
        cache.insert(1, 300)
        cache.insert(1, 100)  # a shorter turn cannot forget the longer prefix
        assert cache.cached_tokens(1) == 300
        assert cache.stored_tokens == 300
        cache.insert(1, 450)
        assert cache.cached_tokens(1) == 450
        assert cache.stored_tokens == 450

    def test_capacity_enforced_with_lru_eviction(self):
        cache = PrefixCache(capacity_tokens=100)
        cache.insert(1, 40)
        cache.insert(2, 40)
        cache.lookup(1, 10)  # refresh session 1: session 2 becomes LRU
        cache.insert(3, 40)  # overflows: 120 > 100
        assert 2 not in cache
        assert 1 in cache and 3 in cache
        assert cache.evictions == 1
        assert cache.evicted_tokens == 40
        assert cache.stored_tokens == 80

    def test_oversized_entry_truncated_to_budget(self):
        cache = PrefixCache(capacity_tokens=100)
        cache.insert(1, 1000)
        assert cache.cached_tokens(1) == 100
        assert cache.stored_tokens == 100
        assert cache.evictions == 0  # truncation is not an eviction

    def test_eviction_drains_lru_first(self):
        cache = PrefixCache(capacity_tokens=90)
        for key in (1, 2, 3):
            cache.insert(key, 30)
        cache.insert(4, 60)  # needs two evictions: 1 then 2
        assert list(iter([k for k in (1, 2) if k in cache])) == []
        assert 3 in cache and 4 in cache
        assert cache.evictions == 2

    def test_invalidate_and_clear_keep_counters(self):
        cache = PrefixCache()
        cache.insert(1, 50)
        cache.insert(2, 70)
        assert cache.invalidate(1) == 50
        assert cache.invalidate(1) == 0
        assert cache.stored_tokens == 70
        cache.lookup(2, 10)
        cache.clear()
        assert len(cache) == 0
        assert cache.stored_tokens == 0
        assert cache.hits == 1  # lifetime counters survive clear()

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity_tokens"):
            PrefixCache(capacity_tokens=0)
        cache = PrefixCache()
        with pytest.raises(ValueError, match="prompt_tokens"):
            cache.lookup(1, 0)
        with pytest.raises(ValueError, match="tokens"):
            cache.insert(1, 0)


class TestEnginePrefixReuse:
    def test_blocking_prefill_charges_only_the_uncached_suffix(self):
        model = LinearPrefillModel(per_token_s=0.01)
        trace = two_turn_trace(first_prompt=100, output=10, followup=40)
        result = serve(
            FlatSystem(),
            trace,
            prefill=PrefillConfig(model=model),
            prefix_cache=PrefixCache(),
        )
        records = {record.request_id: record for record in result.request_records}
        # Turn 1 misses and pays its full 100-token prompt.
        assert records[0].prefill_s == pytest.approx(1.0)
        # Turn 1 finished at context 110; turn 2's 150-token prompt pays
        # only the 40-token suffix: cumulative(150) - cumulative(110).
        assert records[1].prefill_s == pytest.approx(0.4)
        assert result.prefix_hits == 1
        assert result.prefix_misses == 1
        assert result.prefix_hit_tokens == 110
        assert result.prefix_cache_enabled

    def test_chunked_prefill_charges_only_the_uncached_suffix(self):
        model = LinearPrefillModel(per_token_s=0.01)
        trace = two_turn_trace(first_prompt=100, output=10, followup=40)
        result = serve(
            FlatSystem(),
            trace,
            prefill=PrefillConfig(model=model, chunk_tokens=16),
            prefix_cache=PrefixCache(),
        )
        records = {record.request_id: record for record in result.request_records}
        assert records[0].prefill_s == pytest.approx(1.0)
        assert records[1].prefill_s == pytest.approx(0.4)
        assert result.prefix_hit_tokens == 110

    def test_chunked_prefill_prices_the_cached_prefix_once(self):
        # Turn 2's cached 110-token prefix costs one cumulative call at
        # admission; every chunk after that costs one more.
        model = LinearPrefillModel(per_token_s=0.01, per_token_sq_s=1e-5, base_s=0.1)
        calls: list[int] = []

        class Counting:
            def cumulative_seconds(self, tokens: int) -> float:
                calls.append(tokens)
                return model.cumulative_seconds(tokens)

        result = serve(
            FlatSystem(),
            two_turn_trace(first_prompt=100, output=10, followup=40),
            prefill=PrefillConfig(model=Counting(), chunk_tokens=16),
            prefix_cache=PrefixCache(),
        )
        assert calls == [16, 32, 48, 64, 80, 96, 100, 110, 126, 142, 150]
        charged = 0.0
        for done, upto in ((110, 126), (126, 142), (142, 150)):
            charged += model.cumulative_seconds(upto) - model.cumulative_seconds(done)
        records = {record.request_id: record for record in result.request_records}
        assert records[1].prefill_s == charged

    def test_without_cache_both_turns_pay_full_prefill(self):
        model = LinearPrefillModel(per_token_s=0.01)
        trace = two_turn_trace(first_prompt=100, output=10, followup=40)
        result = serve(FlatSystem(), trace, prefill=PrefillConfig(model=model))
        records = {record.request_id: record for record in result.request_records}
        assert records[1].prefill_s == pytest.approx(1.5)
        assert not result.prefix_cache_enabled
        assert result.prefix_hits == result.prefix_misses == 0

    def test_sessionless_requests_bypass_the_cache(self):
        trace = RequestTrace(
            dataset="no-sessions",
            requests=(
                Request(request_id=0, prompt_tokens=50, output_tokens=5),
                Request(request_id=1, prompt_tokens=50, output_tokens=5, arrival_s=10.0),
            ),
        )
        cache = PrefixCache()
        result = serve(FlatSystem(), trace, prefix_cache=cache)
        assert result.prefix_hits == result.prefix_misses == 0
        assert len(cache) == 0

    def test_counters_report_per_run_deltas(self):
        cache = PrefixCache()
        prefill = PrefillConfig(model=LinearPrefillModel(per_token_s=0.001))
        trace = two_turn_trace()
        first = serve(FlatSystem(), trace, prefill=prefill, prefix_cache=cache)
        # The cache is warm now: a re-run of the same trace hits on both
        # turns, and its counters must not include the first run's.
        second = serve(FlatSystem(), trace, prefill=prefill, prefix_cache=cache)
        assert first.prefix_misses == 1 and first.prefix_hits == 1
        assert second.prefix_misses == 0 and second.prefix_hits == 2

    def test_multi_turn_trace_hits_follow_up_turns(self):
        trace = multi_turn_trace(
            num_sessions=3,
            turns_per_session=4,
            first_prompt_tokens=64,
            followup_tokens=16,
            output_tokens=8,
            seed=11,
            turn_gap_s=50.0,
        )
        result = serve(
            FlatSystem(),
            trace,
            prefill=PrefillConfig(model=LinearPrefillModel(per_token_s=0.001)),
            prefix_cache=PrefixCache(),
        )
        # First turns miss; with 50s between turns every follow-up hits.
        assert result.prefix_misses == 3
        assert result.prefix_hits == 9
        assert result.prefix_hit_tokens > 0

    def test_no_prefill_model_means_no_admission_lookups(self):
        # Without a prefill model admission has nothing to discount, so
        # the cache must not report hits that bought nothing.  (Finished
        # turns are still retained for recompute-mode restores.)
        cache = PrefixCache()
        result = serve(FlatSystem(), two_turn_trace(), prefix_cache=cache)
        assert result.prefix_hits == result.prefix_misses == 0
        assert result.prefix_hit_tokens == 0
        assert cache.cached_tokens(0) > 0  # the session is still retained


class TestRestorePathReuse:
    """Recompute-mode restores: chunked routing + prefix discounts."""

    @staticmethod
    def preempting_engine_kwargs(chunk_tokens, prefix_cache=None):
        model = LinearPrefillModel(per_token_s=0.001)
        return dict(
            prefill=PrefillConfig(model=model, chunk_tokens=chunk_tokens),
            preemption=PreemptionConfig(
                policy=EvictLRU(), cost=PreemptionCostModel(mode="recompute")
            ),
            prefix_cache=prefix_cache,
        )

    @staticmethod
    def tiny_system():
        # 8 chunks, 2 tokens per chunk: four requests growing to 16 tokens
        # oversubscribe the cache 4x (mirrors test_preemption.py).
        return FlatSystem(kv_capacity_bytes=8 * CHUNK)

    @staticmethod
    def pressure_trace():
        return RequestTrace(
            dataset="pressure",
            requests=tuple(
                Request(request_id=index, prompt_tokens=2, output_tokens=14)
                for index in range(4)
            ),
        )

    def test_chunked_recompute_restores_avoid_the_lump_charge(self):
        # Regression: recompute restores used to charge restore_seconds as
        # an up-front lump and re-activate with prefill done, so recomputed
        # tokens never shared decode hardware like chunked prefill does.
        result = serve(
            self.tiny_system(),
            self.pressure_trace(),
            **self.preempting_engine_kwargs(chunk_tokens=4),
        )
        assert result.preemptions > 0
        assert result.recompute_tokens > 0
        # No lump: recompute eviction is free and the re-prefill is charged
        # through the chunked path instead of preemption overhead.
        assert result.preemption_overhead_s == 0.0
        # The re-prefill shows up as per-request prefill work beyond the
        # prompt's own cost (0.001 s/token * 2-token prompts).
        preempted = [r for r in result.request_records if r.preemptions]
        assert preempted
        assert any(r.prefill_s > 0.001 * r.prompt_tokens + 1e-12 for r in preempted)

    @pytest.mark.parametrize("cached_tokens", [0, 1], ids=["cold", "partial-cache"])
    def test_chunked_recompute_restart_prices_from_the_cached_prefix(self, cached_tokens):
        # A restore restarts prefill at the cached prefix, so a request is
        # charged its prompt plus each re-prefilled suffix (linear model,
        # no launch cost).  One 64-token chunk covers every re-prefill.
        trace = RequestTrace(
            dataset="pressure",
            requests=tuple(
                Request(
                    request_id=index, prompt_tokens=2, output_tokens=14,
                    session=index,
                )
                for index in range(4)
            ),
        )
        cache = PrefixCache()
        if cached_tokens:
            for index in range(4):
                cache.insert(index, cached_tokens)
        result = serve(
            self.tiny_system(),
            trace,
            **self.preempting_engine_kwargs(chunk_tokens=64, prefix_cache=cache),
        )
        preempted = [r for r in result.request_records if r.preemptions]
        assert preempted
        for record in result.request_records:
            uncached_prompt = record.prompt_tokens - min(cached_tokens, record.prompt_tokens)
            assert record.prefill_s == pytest.approx(
                0.001 * (uncached_prompt + record.recompute_tokens)
            )

    def test_blocking_recompute_restores_keep_the_lump_charge(self):
        result = serve(
            self.tiny_system(),
            self.pressure_trace(),
            **self.preempting_engine_kwargs(chunk_tokens=None),
        )
        assert result.preemptions > 0
        assert result.preemption_overhead_s > 0.0

    def test_chunked_and_lump_recompute_charge_the_same_total_seconds(self):
        # The chunked route spreads the same cumulative recompute cost over
        # decode steps; with a linear model and identical preemption
        # schedules the generated work must match exactly.
        chunked = serve(
            self.tiny_system(),
            self.pressure_trace(),
            **self.preempting_engine_kwargs(chunk_tokens=64),
        )
        lump = serve(
            self.tiny_system(),
            self.pressure_trace(),
            **self.preempting_engine_kwargs(chunk_tokens=None),
        )
        assert chunked.total_output_tokens == lump.total_output_tokens
        assert chunked.requests_served == lump.requests_served == 4

    def test_prefix_cache_discounts_recompute_restores(self):
        # Same pressure scenario, but every request belongs to a session
        # whose full final context is pre-seeded in the cache: restores
        # then recompute nothing.
        trace = RequestTrace(
            dataset="pressure",
            requests=tuple(
                Request(
                    request_id=index, prompt_tokens=2, output_tokens=14,
                    session=index,
                )
                for index in range(4)
            ),
        )
        cold = serve(
            self.tiny_system(), trace, **self.preempting_engine_kwargs(chunk_tokens=None)
        )
        warm_cache = PrefixCache()
        for index in range(4):
            warm_cache.insert(index, 16)
        warm = serve(
            self.tiny_system(),
            trace,
            **self.preempting_engine_kwargs(chunk_tokens=None, prefix_cache=warm_cache),
        )
        assert cold.recompute_tokens > 0
        assert warm.recompute_tokens == 0
        assert warm.preemption_overhead_s == 0.0
        assert cold.preemption_overhead_s > 0.0
        assert warm.total_output_tokens == cold.total_output_tokens
