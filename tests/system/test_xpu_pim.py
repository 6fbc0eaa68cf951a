"""Tests for the heterogeneous xPU+PIM (NeuPIMs-style) system model."""

import dataclasses

import pytest

from repro.baselines.neupims import neupims_system_config
from repro.core.orchestrator import PIMphonyConfig
from repro.pim.config import neupims_module_config
from repro.serving.interfaces import StepResult
from repro.system.interconnect import InterconnectConfig
from repro.system.parallelism import ParallelismPlan
from repro.system.pipeline import _evaluate, pipeline_decode_step, split_microbatches
from repro.system.xpu_pim import XPUPIMSystem


def make_system(model, tp=4, pp=1, config=None, **kwargs):
    return XPUPIMSystem(
        model=model,
        num_modules=tp * pp,
        plan=ParallelismPlan(tp, pp),
        pimphony=config or PIMphonyConfig.full(),
        module=neupims_module_config(),
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
