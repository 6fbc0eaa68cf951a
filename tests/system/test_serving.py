"""Tests for the decode serving loop."""

import pytest

from repro.baselines.cent import cent_system_config
from repro.core.orchestrator import PIMphonyConfig
from repro.memory.static_alloc import AllocationError
from repro.serving.engine import serve
from repro.workloads.datasets import get_dataset, synthetic_dataset
from repro.workloads.traces import generate_trace


def make_trace(model, requests=8, output=16, dataset="qmsum", seed=0):
    return generate_trace(
        get_dataset(dataset),
        num_requests=requests,
        seed=seed,
        context_window=model.context_window,
        output_tokens=output,
    )


class TestServingLoop:
    def test_every_output_token_is_generated(self, llm_7b):
        trace = make_trace(llm_7b, requests=6, output=16)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        result = serve(system, trace, step_stride=4)
        assert result.total_output_tokens == trace.total_output_tokens
        assert result.requests_served == len(trace)
        assert result.total_seconds > 0

    def test_step_stride_preserves_token_count(self, llm_7b):
        trace = make_trace(llm_7b, requests=4, output=32)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        fine = serve(system, trace, step_stride=1)
        coarse = serve(system, trace, step_stride=16)
        assert fine.total_output_tokens == coarse.total_output_tokens
        assert coarse.total_seconds == pytest.approx(fine.total_seconds, rel=0.05)

    def test_dpa_admits_larger_batches(self, llm_7b):
        trace = make_trace(llm_7b, requests=16, output=8)
        static_system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.tcp_dcs())
        dpa_system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        static_result = serve(static_system, trace, step_stride=4)
        dpa_result = serve(dpa_system, trace, step_stride=4)
        assert dpa_result.peak_batch_size > static_result.peak_batch_size
        assert dpa_result.average_capacity_utilization > static_result.average_capacity_utilization

    def test_max_batch_size_respected(self, llm_7b):
        trace = make_trace(llm_7b, requests=8, output=8)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        result = serve(system, trace, max_batch_size=2, step_stride=4)
        assert result.peak_batch_size <= 2

    def test_pimphony_throughput_beats_baseline(self, llm_7b):
        trace = make_trace(llm_7b, requests=8, output=16)
        baseline = serve(
            cent_system_config(llm_7b, pimphony=PIMphonyConfig.baseline()), trace, step_stride=4
        )
        pimphony = serve(
            cent_system_config(llm_7b, pimphony=PIMphonyConfig.full()), trace, step_stride=4
        )
        assert pimphony.throughput_tokens_per_s > 1.5 * baseline.throughput_tokens_per_s

    def test_oversized_request_raises(self, llm_7b):
        huge = synthetic_dataset(
            "huge", mean=5e6, std=1.0, minimum=4_000_000, maximum=6_000_000, output_tokens=4
        )
        trace = generate_trace(huge, num_requests=1, seed=0)
        system = cent_system_config(
            llm_7b.with_context_window(8 * 1024 * 1024),
            num_modules=1,
            pimphony=PIMphonyConfig.full(),
        )
        with pytest.raises(AllocationError):
            serve(system, trace)

    def test_invalid_stride_rejected(self, llm_7b):
        trace = make_trace(llm_7b, requests=2, output=4)
        system = cent_system_config(llm_7b)
        with pytest.raises(ValueError):
            serve(system, trace, step_stride=0)

    def test_result_metrics_consistent(self, llm_7b):
        trace = make_trace(llm_7b, requests=4, output=8)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        result = serve(system, trace, step_stride=2, system_name="cent+pimphony")
        assert result.system_name == "cent+pimphony"
        assert result.dataset == "qmsum"
        assert result.average_step_seconds == pytest.approx(
            result.total_seconds / result.steps
        )
        assert 0 <= result.average_pim_utilization <= 1
        assert 0 <= result.average_capacity_utilization <= 1
