"""Tests for the heterogeneous xPU+PIM (NeuPIMs-style) system model."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.neupims import neupims_system_config
from repro.core.orchestrator import PIMphonyConfig
from repro.pim.config import neupims_module_config
from repro.pim.simulator import ZERO_BREAKDOWN
from repro.serving.interfaces import StepResult
from repro.system.interconnect import InterconnectConfig
from repro.system.parallelism import ParallelismPlan
from repro.system.pim_module import FC_MEMO_LIMIT
from repro.system.pipeline import _evaluate, pipeline_decode_step, split_microbatches
from repro.system.xpu import fc_layer_seconds
from repro.system.xpu_pim import XPUPIMSystem


def make_system(model, tp=4, pp=1, config=None, **kwargs):
    kwargs.setdefault("module", neupims_module_config())
    return XPUPIMSystem(
        model=model,
        num_modules=tp * pp,
        plan=ParallelismPlan(tp, pp),
        pimphony=config or PIMphonyConfig.full(),
        **kwargs,
    )


def oracle_step(system, contexts):
    """The step as the micro-batch scan over ``_stage_cost`` prices it.

    Returns the TP-scaled :class:`StepResult` (FC runs on the xPU, so no
    FC breakdown) and the winning micro-batch count.
    """
    step = pipeline_decode_step(contexts, system.plan.pipeline_parallel, system._stage_cost)
    result = StepResult(
        seconds=step.seconds,
        pim_utilization=step.pim_utilization,
        attention_breakdown=step.attention_breakdown.scaled(system.plan.tensor_parallel),
    )
    return result, step.num_microbatches


class TestXPUPIMSystem:
    def test_step_latency_grows_with_context_at_batch(self, llm_7b):
        # With a single request the xPU FC stream dominates and the step time
        # is context-insensitive; with a realistic batch the PIM-side
        # attention grows with context and becomes the critical path.
        system = make_system(llm_7b)
        short = system.decode_step([4096] * 8)
        long = system.decode_step([65536] * 8)
        assert short.seconds < long.seconds

    def test_pimphony_beats_baseline_at_long_context(self, llm_7b):
        contexts = [32768] * 4
        baseline = make_system(llm_7b, config=PIMphonyConfig.baseline()).decode_step(contexts)
        full = make_system(llm_7b, config=PIMphonyConfig.full()).decode_step(contexts)
        assert full.seconds < baseline.seconds

    def test_short_context_is_fc_bound_so_gains_shrink(self, llm_7b):
        """With tiny contexts the xPU FC time dominates and PIM scheduling
        barely matters -- the paper's observation that xPU+PIM gains appear
        at long context."""
        short = [256] * 4
        long = [65536] * 4
        baseline = make_system(llm_7b, config=PIMphonyConfig.baseline())
        full = make_system(llm_7b, config=PIMphonyConfig.full())
        short_gain = baseline.decode_step(short).seconds / full.decode_step(short).seconds
        long_gain = baseline.decode_step(long).seconds / full.decode_step(long).seconds
        assert long_gain > short_gain

    def test_fc_runs_on_xpu_not_pim(self, llm_7b):
        step = make_system(llm_7b).decode_step([16384] * 2)
        assert step.fc_breakdown.total == 0.0
        assert step.attention_breakdown.total > 0.0

    def test_capacity_and_channels(self, llm_7b):
        system = make_system(llm_7b)
        assert system.total_capacity_bytes == 4 * 32 * 1024**3
        assert system.total_pim_channels == 4 * 32

    def test_plan_mismatch_rejected(self, llm_7b):
        with pytest.raises(ValueError):
            XPUPIMSystem(
                model=llm_7b,
                num_modules=4,
                plan=ParallelismPlan(2, 1),
                module=neupims_module_config(),
            )


class TestDecodeSpan:
    """The closed-form TCP span must replicate ``decode_step`` bit-for-bit."""

    CASES = [
        ([1], 1, 5),
        ([120000], 4, 64),
        ([20000, 20000, 20000], 4, 33),
        ([512, 300, 17], 8, 9),
        ([33, 33, 33], 3, 11),
        ([120000, 20000, 120000, 20000], 4, 4096),
        ([20000, 5, 5, 5, 900], 8, 5),
    ]

    def test_installed_only_for_tcp_single_stage(self, llm_7b, llm_72b_gqa):
        assert make_system(llm_7b, config=PIMphonyConfig.full()).decode_span is not None
        assert make_system(llm_7b, config=PIMphonyConfig.baseline()).decode_span is None
        assert make_system(llm_7b, tp=2, pp=2, config=PIMphonyConfig.full()).decode_span is None
        default_72b = neupims_system_config(llm_72b_gqa, pimphony=PIMphonyConfig.full())
        assert default_72b.plan.pipeline_parallel > 1
        assert default_72b.decode_span is None

    @pytest.mark.parametrize(("contexts", "stride", "count"), CASES)
    def test_span_matches_decode_step_bitwise(self, llm_7b_gqa, contexts, stride, count):
        system = make_system(llm_7b_gqa)
        span = system.decode_span(contexts, stride, count)
        assert span.shape == (count, 2)
        # Long spans are sampled; every row of a short one is checked.
        rows = sorted({*range(0, count, max(1, count // 32)), count - 1})
        for j in rows:
            step, _ = oracle_step(system, [c + j * stride for c in contexts])
            assert float(span[j, 0]) == step.seconds
            assert float(span[j, 1]) == step.pim_utilization

    def test_utilization_varies_with_context(self, llm_7b_gqa):
        """At batch 1 the xPU FC stream hides short attention, so the PIM
        busy fraction rises with context: the column is not a constant."""
        span = make_system(llm_7b_gqa).decode_span([4096], 4096, 32)
        assert 0.0 < span[0, 1] < span[-1, 1] <= 1.0

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
            ([120000], 1),
            ([512, 300, 17, 20000, 4096, 4097, 65, 64, 1, 2, 120000, 33, 99999, 7, 8, 9], 1),
            ([20000] * 3, 1),
            ([33, 33, 33, 0, -1], 1),
            ([120000, 20000, 120000, 20000], 1),
        ],
    )
    def test_step_matches_pipeline_oracle(self, llm_7b_gqa, contexts, microbatches):
        system = make_system(llm_7b_gqa)
        expected, count = oracle_step(system, contexts)
        assert count == microbatches
        assert system.decode_step(contexts) == expected

    @pytest.mark.parametrize(
        ("contexts", "microbatches"), [([120352, 121478], 2), ([110155, 101654], 1)]
    )
    def test_step_matches_oracle_at_rounding_margins(self, llm_7b_gqa, contexts, microbatches):
        """Without link latency only rounding separates the candidates: the
        first batch runs faster as one micro-batch per request, and the
        second ties, which keeps the whole batch.  At 30 layers the two
        candidates' attention sums round apart, so the fold order shows."""
        model = dataclasses.replace(llm_7b_gqa, num_layers=30)
        system = make_system(model, tp=1, interconnect=InterconnectConfig(latency_s=0.0))
        whole, split = (
            _evaluate(split_microbatches(contexts, count), 1, system._stage_cost)
            for count in (1, len(contexts))
        )
        assert whole.attention_breakdown != split.attention_breakdown
        assert (split.seconds < whole.seconds) == (microbatches > 1)
        assert split.seconds <= whole.seconds
        expected, count = oracle_step(system, contexts)
        assert count == microbatches
        assert system.decode_step(contexts) == expected

    def test_step_for_empty_batch_matches_oracle(self, llm_7b_gqa):
        system = make_system(llm_7b_gqa)
        assert system.decode_step([0, -3]) == oracle_step(system, [0, -3])[0]


def margin_system(model, channels=32):
    """No link latency on one module: at long contexts only rounding
    separates the two micro-batch candidates, so either may win and they
    may tie.  With a channel count that is not a power of two, scaling by
    it rounds, so the breakdowns' association shows."""
    return make_system(
        dataclasses.replace(model, num_layers=30),
        tp=1,
        interconnect=InterconnectConfig(latency_s=0.0),
        module=dataclasses.replace(neupims_module_config(), num_channels=channels),
    )


def odd_channel_system(model):
    return margin_system(model, channels=24)


class TestTablePricing:
    """TCP single-stage steps and spans fold the system's share tables;
    both must equal the micro-batch scan over ``_stage_cost`` on every
    field (seconds, utilization and the attention breakdown)."""

    def test_batch_of_one(self, llm_7b_gqa):
        for system in (make_system(llm_7b_gqa), margin_system(llm_7b_gqa)):
            for context in (1, 31, 32, 33, 4096, 20000, 131072):
                expected, count = oracle_step(system, [context])
                assert count == 1
                assert system.decode_step([context]) == expected

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        ("make", "shortest"),
        [(make_system, 1), (margin_system, 60000), (odd_channel_system, 60000)],
    )
    def test_seeded_batches_up_to_64(self, llm_7b_gqa, seed, make, shortest):
        system = make(llm_7b_gqa)
        rng = np.random.default_rng(seed)
        for size in (2, 3, 5, 8, 16, 31, 64):
            contexts = rng.integers(shortest, llm_7b_gqa.context_window + 1, size=size).tolist()
            expected, _ = oracle_step(system, contexts)
            assert system.decode_step(contexts) == expected

    def test_split_candidate_wins_in_seeded_margin_batches(self, llm_7b_gqa):
        """The seeded margin batches above cover both candidates winning."""
        system = margin_system(llm_7b_gqa)
        counts = set()
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for size in (2, 3, 5, 8, 16, 31, 64):
                contexts = rng.integers(60000, llm_7b_gqa.context_window + 1, size=size).tolist()
                counts.add(oracle_step(system, contexts)[1] > 1)
        assert counts == {False, True}

    def test_tie_keeps_the_whole_batch(self, llm_7b_gqa):
        system = margin_system(llm_7b_gqa)
        contexts = [110155, 101654]
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

    def test_shares_past_the_window_are_priced_directly(self, llm_7b_gqa):
        system = make_system(llm_7b_gqa)
        prices = system._share_prices
        window = llm_7b_gqa.context_window
        for contexts in ([window + 5000], [window + 5000, window + 1, 100], [window, window + 33]):
            expected, _ = oracle_step(system, contexts)
            assert system.decode_step(contexts) == expected
        # A small span is folded in Python, a large one with numpy; both
        # cross the window.
        for contexts, stride, count in (
            ([window - 8, 500], 8, 3),
            ([window - 600, window - 20, 17, 900], 16, 40),
        ):
            span = system.decode_span(contexts, stride, count)
            for j in range(count):
                step, _ = oracle_step(system, [c + j * stride for c in contexts])
                assert float(span[j, 0]) == step.seconds
                assert float(span[j, 1]) == step.pim_utilization
        tables = (*prices._arrays, *prices._lists)
        assert [len(table) for table in tables] == [prices.n_shares] * 6
        assert max(prices._terms) < prices.n_shares

    def test_batch_one_tables_are_the_stage_cost_of_one_request(self, llm_7b_gqa):
        system = make_system(llm_7b_gqa)
        prices = system._share_prices
        system.decode_step([1])
        _, seconds, busy = prices._lists
        channels = system.module.num_channels
        for share in [1, 2, 3, 100, 2047, 2048, prices.n_shares - 1]:
            stage = system._stage_cost([share * channels])
            assert seconds[share] == stage.seconds
            assert busy[share] == stage.seconds * stage.pim_utilization


class TestFCMemo:
    @staticmethod
    def unmemoised(system, batch_size):
        seconds = fc_layer_seconds(
            xpu=system.xpu,
            batch_size=batch_size,
            d_model=system.model.d_model,
            kv_dim=system.model.kv_dim,
            ffn_dim=system.model.ffn_dim,
            gated_ffn=system.model.gated_ffn,
            tensor_parallel=system.plan.tensor_parallel,
            dtype_bytes=system.model.dtype_bytes,
        )
        return seconds, ZERO_BREAKDOWN  # FC runs on the xPU, off PIM

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
