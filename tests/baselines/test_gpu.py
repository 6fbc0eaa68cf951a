"""Tests for the GPU (A100 + FlashDecoding + PagedAttention) baseline."""

import itertools

import pytest

from repro.baselines.gpu import GPUConfig, GPUSystemModel, a100_config
from repro.serving import serve
from repro.workloads.datasets import get_dataset
from repro.workloads.traces import generate_trace


class TestGPUModel:
    def test_memory_matched_configurations(self, llm_7b, llm_72b):
        two = GPUSystemModel(model=llm_7b, num_gpus=2)
        eight = GPUSystemModel(model=llm_72b, num_gpus=8)
        assert two.total_capacity_bytes == 2 * 80 * 1024**3
        assert eight.kv_capacity_bytes > 0

    def test_step_latency_grows_with_context(self, llm_7b):
        gpu = GPUSystemModel(model=llm_7b, num_gpus=2)
        assert gpu.decode_step([4096]).seconds < gpu.decode_step([32768]).seconds

    def test_flash_decoding_speeds_up_attention(self, llm_7b):
        contexts = [32768] * 8
        with_fd = GPUSystemModel(model=llm_7b, num_gpus=2, flash_decoding=True)
        without_fd = GPUSystemModel(model=llm_7b, num_gpus=2, flash_decoding=False)
        assert with_fd.decode_step(contexts).seconds < without_fd.decode_step(contexts).seconds

    def test_paged_attention_controls_dynamic_memory(self, llm_7b):
        assert GPUSystemModel(model=llm_7b, num_gpus=2, paged_attention=True).dynamic_memory
        assert not GPUSystemModel(model=llm_7b, num_gpus=2, paged_attention=False).dynamic_memory

    def test_more_gpus_reduce_step_time(self, llm_72b):
        contexts = [16384] * 4
        four = GPUSystemModel(model=llm_72b, num_gpus=4).decode_step(contexts)
        eight = GPUSystemModel(model=llm_72b, num_gpus=8).decode_step(contexts)
        assert eight.seconds < four.seconds

    def test_serving_loop_compatibility(self, llm_7b):
        trace = generate_trace(
            get_dataset("qmsum"), 4, seed=0, context_window=llm_7b.context_window, output_tokens=8
        )
        gpu = GPUSystemModel(model=llm_7b, num_gpus=2)
        result = serve(gpu, trace, step_stride=4)
        assert result.total_output_tokens == trace.total_output_tokens
        assert result.total_pim_channels == 0

    def test_invalid_configs_rejected(self, llm_7b):
        with pytest.raises(ValueError):
            GPUSystemModel(model=llm_7b, num_gpus=0)
        with pytest.raises(ValueError):
            GPUConfig(memory_capacity_bytes=0)

    def test_a100_preset(self):
        gpu = a100_config()
        assert gpu.memory_capacity_bytes == 80 * 1024**3
        assert gpu.memory_bandwidth_bytes == pytest.approx(2e12)


@pytest.mark.parametrize(
    ("batch", "stride", "count"), list(itertools.product([1, 3, 16], [1, 8], [1, 5, 64]))
)
def test_decode_span_rows_equal_decode_steps(llm_7b, batch, stride, count):
    """Row ``j`` is ``decode_step`` at contexts advanced by ``j * stride``, bit for bit."""
    gpu = GPUSystemModel(model=llm_7b, num_gpus=2)
    contexts = [1 + (7919 * index) % 30000 for index in range(batch)]
    priced = gpu.decode_span(contexts, stride, count)
    assert priced.shape == (count, 2)
    for j in range(count):
        step = gpu.decode_step([context + j * stride for context in contexts])
        assert priced[j, 0] == step.seconds
    assert not priced[:, 1].any()
