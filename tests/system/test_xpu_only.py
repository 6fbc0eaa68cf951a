"""Tests for the xPU-only (no-PIM) system model."""

import itertools

import pytest

from repro.serving import serve
from repro.system.xpu import XPUConfig, XPUOnlySystem
from repro.workloads.datasets import get_dataset
from repro.workloads.traces import generate_trace


def make_system(model, num_modules=2, **kwargs):
    return XPUOnlySystem(model=model, num_modules=num_modules, **kwargs)


class TestXPUOnlySystem:
    def test_decode_step_roofline_components(self, llm_7b):
        system = make_system(llm_7b)
        step = system.decode_step([8192, 8192])
        assert step.seconds > 0
        assert step.pim_utilization == 0.0
        # Attention is KV streaming: doubling every context roughly adds the
        # incremental KV read time, so the step must get strictly slower.
        slower = system.decode_step([16384, 16384])
        assert slower.seconds > step.seconds

    def test_tensor_parallel_scaling(self, llm_7b):
        contexts = [8192] * 4
        two = make_system(llm_7b, num_modules=2).decode_step(contexts)
        eight = make_system(llm_7b, num_modules=8).decode_step(contexts)
        assert eight.seconds < two.seconds

    def test_kv_capacity_excludes_weights(self, llm_7b):
        system = make_system(llm_7b)
        assert (
            system.kv_capacity_bytes
            == system.total_capacity_bytes - llm_7b.param_bytes
        )
        assert system.kv_bytes_per_token == llm_7b.kv_bytes_per_token
        assert system.max_context_tokens == llm_7b.context_window
        assert system.total_pim_channels == 0

    def test_paged_kv_toggles_dynamic_memory(self, llm_7b):
        assert make_system(llm_7b, paged_kv=True).dynamic_memory
        assert not make_system(llm_7b, paged_kv=False).dynamic_memory

    def test_empty_batch_is_free(self, llm_7b):
        step = make_system(llm_7b).decode_step([])
        assert step.seconds == 0.0

    def test_invalid_configuration_rejected(self, llm_7b):
        with pytest.raises(ValueError):
            make_system(llm_7b, num_modules=0)
        with pytest.raises(ValueError):
            make_system(llm_7b, capacity_bytes_per_module=0)
        with pytest.raises(ValueError):
            XPUConfig(peak_tflops=0)

    def test_serves_through_the_engine(self, llm_7b):
        trace = generate_trace(
            get_dataset("qmsum"),
            num_requests=6,
            seed=0,
            context_window=llm_7b.context_window,
            output_tokens=8,
        )
        result = serve(make_system(llm_7b), trace, step_stride=4)
        assert result.total_output_tokens == trace.total_output_tokens
        assert result.requests_served == 6
        assert result.average_pim_utilization == 0.0
        assert result.latency.latency_p50_s <= result.latency.latency_p99_s


@pytest.mark.parametrize(
    ("batch", "stride", "count"), list(itertools.product([1, 3, 16], [1, 8], [1, 5, 64]))
)
def test_decode_span_rows_equal_decode_steps(llm_7b, batch, stride, count):
    """Row ``j`` is ``decode_step`` at contexts advanced by ``j * stride``, bit for bit."""
    system = make_system(llm_7b)
    contexts = [1 + (7919 * index) % 30000 for index in range(batch)]
    priced = system.decode_span(contexts, stride, count)
    assert priced.shape == (count, 2)
    for j in range(count):
        step = system.decode_step([context + j * stride for context in contexts])
        assert priced[j, 0] == step.seconds
    assert not priced[:, 1].any()
