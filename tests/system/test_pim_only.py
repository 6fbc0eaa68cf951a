"""Tests for the PIM-only (CENT-style) system model."""

import dataclasses

import numpy as np
import pytest

from repro.core.orchestrator import PIMphonyConfig
from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.static_alloc import StaticAllocator
from repro.pim.config import cent_module_config
from repro.serving.interfaces import StepResult, allocator_for
from repro.system.interconnect import InterconnectConfig
from repro.system.parallelism import ParallelismPlan
from repro.system.layers import module_fc_time
from repro.system.pim_module import FC_MEMO_LIMIT
from repro.system.pim_only import PIMOnlySystem
from repro.system.pipeline import _evaluate, pipeline_decode_step, split_microbatches


def make_system(model, tp=8, pp=1, config=None, **kwargs):
    kwargs.setdefault("module", cent_module_config())
    return PIMOnlySystem(
        model=model,
        num_modules=tp * pp,
        plan=ParallelismPlan(tp, pp),
        pimphony=config or PIMphonyConfig.full(),
        **kwargs,
    )


def oracle_step(system, contexts):
    """The step as the micro-batch scan over ``_stage_cost`` prices it.

    Returns the TP-scaled :class:`StepResult` and the winning micro-batch
    count.
    """
    step = pipeline_decode_step(contexts, system.plan.pipeline_parallel, system._stage_cost)
    scale = system.plan.tensor_parallel
    result = StepResult(
        seconds=step.seconds,
        pim_utilization=step.pim_utilization,
        attention_breakdown=step.attention_breakdown.scaled(scale),
        fc_breakdown=step.fc_breakdown.scaled(scale),
    )
    return result, step.num_microbatches


class TestConstruction:
    def test_plan_must_cover_modules(self, llm_7b):
        with pytest.raises(ValueError):
            PIMOnlySystem(
                model=llm_7b,
                num_modules=8,
                plan=ParallelismPlan(2, 2),
                module=cent_module_config(),
            )

    def test_capacity_accounts_for_weights(self, llm_7b):
        system = make_system(llm_7b)
        assert system.total_capacity_bytes == 8 * 16 * 1024**3
        assert system.kv_capacity_bytes < system.total_capacity_bytes
        assert system.kv_capacity_bytes > 0

    def test_dynamic_memory_follows_dpa(self, llm_7b):
        full = make_system(llm_7b, config=PIMphonyConfig.full())
        baseline = make_system(llm_7b, config=PIMphonyConfig.baseline())
        assert full.dynamic_memory
        assert not baseline.dynamic_memory
        # Serving runs get the count-only chunked allocator, not DPAController.
        assert type(allocator_for(full)) is ChunkedAllocator
        assert type(allocator_for(baseline)) is StaticAllocator


class TestDecodeStep:
    def test_step_latency_positive_and_grows_with_context(self, llm_7b):
        system = make_system(llm_7b)
        short = system.decode_step([4096] * 4)
        long = system.decode_step([32768] * 4)
        assert 0 < short.seconds < long.seconds

    def test_pimphony_beats_baseline(self, llm_7b):
        contexts = [32768, 24576, 16384, 8192]
        baseline = make_system(llm_7b, config=PIMphonyConfig.baseline()).decode_step(contexts)
        full = make_system(llm_7b, config=PIMphonyConfig.full()).decode_step(contexts)
        assert full.seconds < baseline.seconds
        assert full.pim_utilization > baseline.pim_utilization

    def test_incremental_features_never_hurt(self, llm_7b):
        contexts = [32768] * 4
        times = [
            make_system(llm_7b, config=config).decode_step(contexts).seconds
            for config in PIMphonyConfig.incremental_sweep()
        ]
        assert times[0] >= times[1] >= times[2] >= times[3] * 0.999

    def test_pipeline_bubbles_with_insufficient_microbatches(self, llm_7b):
        """With one request on a PP=4 system, three stages idle each step."""
        pp_system = make_system(llm_7b, tp=2, pp=4)
        tp_system = make_system(llm_7b, tp=8, pp=1)
        pp_step = pp_system.decode_step([16384])
        tp_step = tp_system.decode_step([16384])
        assert pp_step.pim_utilization < tp_step.pim_utilization

    def test_empty_batch(self, llm_7b):
        step = make_system(llm_7b).decode_step([])
        assert step.seconds == 0.0

    def test_breakdowns_populated_for_energy(self, llm_7b):
        step = make_system(llm_7b).decode_step([16384] * 2)
        assert step.attention_breakdown.total > 0
        assert step.fc_breakdown.total > 0


class TestDecodeSpan:
    """The closed-form TCP span must replicate ``decode_step`` bit-for-bit."""

    CASES = [
        ([1], 1, 5),
        ([1, 1], 8, 7),
        ([512, 300, 17], 8, 9),
        ([4096, 4096, 123, 7], 4, 6),
        ([33, 33, 33], 3, 11),
        ([20000, 5, 5, 5, 900], 8, 5),
    ]

    def test_installed_only_for_tcp_single_stage(self, llm_7b):
        assert make_system(llm_7b, config=PIMphonyConfig.full()).decode_span is not None
        assert make_system(llm_7b, config=PIMphonyConfig.baseline()).decode_span is None
        assert make_system(llm_7b, tp=2, pp=4, config=PIMphonyConfig.full()).decode_span is None

    @pytest.mark.parametrize(("contexts", "stride", "count"), CASES)
    def test_span_matches_decode_step_bitwise(self, llm_7b, contexts, stride, count):
        system = make_system(llm_7b)
        span = system.decode_span(contexts, stride, count)
        assert span.shape == (count, 2)
        for j in range(count):
            step, _ = oracle_step(system, [c + j * stride for c in contexts])
            assert float(span[j, 0]) == step.seconds
            assert float(span[j, 1]) == step.pim_utilization

    def test_empty_contexts_priced_at_zero(self, llm_7b):
        span = make_system(llm_7b).decode_span([], 8, 3)
        assert span.shape == (3, 2)
        assert (span == 0.0).all()


class TestOnePassStep:
    """TCP single-stage ``decode_step`` prices each unit of work once and
    must equal the micro-batch scan over ``_stage_cost`` on every field."""

    @pytest.mark.parametrize(
        ("contexts", "microbatches"),
        [
            ([4200], 1),
            ([300, 500, 4200, 4400, 17, 8191, 8192, 8193, 1, 2, 64, 65, 300, 500, 9000, 12], 1),
            ([4096] * 4, 1),
            ([33, 33, 33, 0, -1], 1),
            ([20000, 5, 5, 5, 900], 1),
        ],
    )
    def test_step_matches_pipeline_oracle(self, llm_7b, contexts, microbatches):
        system = make_system(llm_7b)
        expected, count = oracle_step(system, contexts)
        assert count == microbatches
        assert system.decode_step(contexts) == expected

    @pytest.mark.parametrize(
        ("contexts", "microbatches"), [([578, 579, 563], 3), ([374, 513, 1], 1)]
    )
    def test_step_matches_oracle_at_rounding_margins(self, llm_7b, contexts, microbatches):
        """Without DCS, row reuse or link latency, FC work and syncs scale
        linearly with batch, so rounding alone separates the candidates:
        the first batch runs faster as one micro-batch per request, and the
        second ties, which keeps the whole batch.  At 30 layers the two
        candidates' breakdown sums round apart, so the fold order shows."""
        model = dataclasses.replace(llm_7b, num_layers=30)
        config = PIMphonyConfig(tcp=True, dcs=False, row_reuse=False)
        system = make_system(model, config=config, interconnect=InterconnectConfig(latency_s=0.0))
        whole, split = (
            _evaluate(split_microbatches(contexts, count), 1, system._stage_cost)
            for count in (1, len(contexts))
        )
        assert whole.attention_breakdown != split.attention_breakdown
        assert whole.fc_breakdown != split.fc_breakdown
        assert (split.seconds < whole.seconds) == (microbatches > 1)
        assert split.seconds <= whole.seconds
        expected, count = oracle_step(system, contexts)
        assert count == microbatches
        assert system.decode_step(contexts) == expected

    def test_step_for_empty_batch_matches_oracle(self, llm_7b):
        system = make_system(llm_7b)
        assert system.decode_step([0, -3]) == oracle_step(system, [0, -3])[0]


class TestFCMemo:
    @staticmethod
    def unmemoised(system, batch_size):
        return module_fc_time(
            batch_size=batch_size,
            d_model=system.model.d_model,
            kv_dim=system.model.kv_dim,
            ffn_dim=system.model.ffn_dim,
            gated_ffn=system.model.gated_ffn,
            tensor_parallel=system.plan.tensor_parallel,
            module=system.module,
            config=system.pimphony,
        )

    @pytest.mark.parametrize("config", [PIMphonyConfig.full(), PIMphonyConfig.baseline()])
    def test_memo_returns_the_unmemoised_value(self, llm_7b, config):
        system = make_system(llm_7b, config=config)
        for batch_size in range(1, 65):
            expected = self.unmemoised(system, batch_size)
            assert system._fc_time(batch_size) == expected
            assert system._fc_time(batch_size) == expected  # now from the memo

    def test_memo_is_bounded(self, llm_7b):
        system = make_system(llm_7b, tp=1)
        sizes = range(1, FC_MEMO_LIMIT + 6)
        for batch_size in sizes:
            system._fc_time(batch_size)
        assert len(system._fc_memo) == FC_MEMO_LIMIT
        assert system._fc_time(sizes[-1]) == self.unmemoised(system, sizes[-1])
        assert len(system._fc_memo) == FC_MEMO_LIMIT


def margin_system(model, channels=32):
    """No DCS, row reuse or link latency: only rounding separates the two
    micro-batch candidates, so either may win and they may tie.  With a
    channel count that is not a power of two, scaling by it rounds, so the
    breakdowns' association shows."""
    config = PIMphonyConfig(tcp=True, dcs=False, row_reuse=False)
    return make_system(
        dataclasses.replace(model, num_layers=30),
        config=config,
        interconnect=InterconnectConfig(latency_s=0.0),
        module=dataclasses.replace(cent_module_config(), num_channels=channels),
    )


def odd_channel_system(model):
    return margin_system(model, channels=24)


class TestTablePricing:
    """TCP single-stage steps and spans fold the system's share tables;
    both must equal the micro-batch scan over ``_stage_cost`` on every
    field (seconds, utilization and both breakdowns)."""

    def test_batch_of_one(self, llm_7b):
        for system in (make_system(llm_7b), margin_system(llm_7b)):
            for context in (1, 31, 32, 33, 4096, 20000, 32768):
                expected, count = oracle_step(system, [context])
                assert count == 1
                assert system.decode_step([context]) == expected

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("make", [make_system, margin_system, odd_channel_system])
    def test_seeded_batches_up_to_64(self, llm_7b, seed, make):
        system = make(llm_7b)
        rng = np.random.default_rng(seed)
        for size in (2, 3, 5, 8, 16, 31, 64):
            contexts = rng.integers(1, llm_7b.context_window + 1, size=size).tolist()
            expected, _ = oracle_step(system, contexts)
            assert system.decode_step(contexts) == expected

    def test_split_candidate_wins_in_seeded_margin_batches(self, llm_7b):
        """The seeded margin batches above cover both candidates winning."""
        system = margin_system(llm_7b)
        counts = set()
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for size in (2, 3, 5, 8, 16, 31, 64):
                contexts = rng.integers(1, llm_7b.context_window + 1, size=size).tolist()
                counts.add(oracle_step(system, contexts)[1] > 1)
        assert counts == {False, True}

    def test_tie_keeps_the_whole_batch(self, llm_7b):
        system = margin_system(llm_7b)
        contexts = [374, 513, 1]
        whole, split = (
            _evaluate(split_microbatches(contexts, count), 1, system._stage_cost)
            for count in (1, len(contexts))
        )
        assert split.seconds == whole.seconds
        assert split.attention_breakdown != whole.attention_breakdown
        expected, count = oracle_step(system, contexts)
        assert count == 1
        assert system.decode_step(contexts) == expected
        assert float(system.decode_span(contexts, 1, 1)[0, 0]) == whole.seconds

    def test_shares_past_the_window_are_priced_directly(self, llm_7b):
        system = make_system(llm_7b)
        prices = system._share_prices
        for contexts in ([40000], [40000, 33000, 100, 32769], [32768, 32769, 32800]):
            expected, _ = oracle_step(system, contexts)
            assert system.decode_step(contexts) == expected
        # A small span is folded in Python, a large one with numpy; both
        # cross the window.
        for contexts, stride, count in (([32760, 500], 8, 3), ([32000, 32700, 17, 900], 16, 40)):
            span = system.decode_span(contexts, stride, count)
            for j in range(count):
                step, _ = oracle_step(system, [c + j * stride for c in contexts])
                assert float(span[j, 0]) == step.seconds
                assert float(span[j, 1]) == step.pim_utilization
        tables = (*prices._arrays, *prices._lists)
        assert [len(table) for table in tables] == [prices.n_shares] * 6
        assert max(prices._terms) < prices.n_shares

    def test_batch_one_tables_are_the_stage_cost_of_one_request(self, llm_7b):
        system = make_system(llm_7b)
        prices = system._share_prices
        system.decode_step([1])
        _, seconds, busy = prices._lists
        channels = system.module.num_channels
        for share in [1, 2, 3, 100, 511, 512, prices.n_shares - 1]:
            stage = system._stage_cost([share * channels])
            assert seconds[share] == stage.seconds
            assert busy[share] == stage.seconds * stage.pim_utilization
