"""Fig. 20 reproduction: throughput of PIMphony systems vs an A100 GPU baseline.

Memory-matched configurations as in the paper: two A100-80GB for the 7B
models, eight for the 72B models; the GPU baseline runs FlashDecoding and
PagedAttention.
"""

from benchmarks._helpers import emit, run_once, serve_workload
from repro.analysis.reporting import format_table
from repro.baselines.cent import cent_system_config
from repro.baselines.gpu import GPUSystemModel
from repro.baselines.neupims import neupims_system_config
from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import get_model
from repro.serving.engine import serve
from repro.workloads.datasets import get_dataset
from repro.workloads.traces import generate_trace

CASES = [
    ("LLM-7B-32K", "qmsum", 2, 20, 24),
    ("LLM-72B-32K", "qmsum", 8, 10, 16),
    ("LLM-7B-128K", "multifieldqa", 2, 12, 24),
    ("LLM-72B-128K", "multifieldqa", 8, 6, 16),
]


def build_fig20():
    rows = []
    for model_name, dataset, gpus, requests, outputs in CASES:
        model = get_model(model_name)
        trace = generate_trace(
            get_dataset(dataset), requests, seed=0,
            context_window=model.context_window, output_tokens=outputs,
        )
        gpu = serve(
            GPUSystemModel(model=model, num_gpus=gpus), trace, step_stride=8
        )
        pim_only = serve_workload(
            cent_system_config, model, dataset, PIMphonyConfig.full(),
            num_requests=requests, output_tokens=outputs, step_stride=8,
        )
        xpu_pim = serve_workload(
            neupims_system_config, model, dataset, PIMphonyConfig.full(),
            num_requests=requests, output_tokens=outputs, step_stride=8,
        )
        rows.append(
            [
                model_name,
                dataset,
                f"{gpus}xA100",
                gpu.throughput_tokens_per_s,
                pim_only.throughput_tokens_per_s,
                xpu_pim.throughput_tokens_per_s,
                pim_only.throughput_tokens_per_s / gpu.throughput_tokens_per_s,
                xpu_pim.throughput_tokens_per_s / gpu.throughput_tokens_per_s,
            ]
        )
    return rows


def test_fig20_gpu_comparison(benchmark):
    rows = run_once(benchmark, build_fig20)
    emit(
        "Fig. 20: decode throughput [tokens/s], GPU (FD+PA) vs PIMphony systems",
        format_table(
            ["model", "dataset", "GPU config", "GPU", "PIM-only+PIMphony", "xPU+PIM+PIMphony",
             "PIM-only speedup", "xPU+PIM speedup"],
            rows,
        ),
    )
    by_model = {row[0]: row for row in rows}
    # PIMphony-enabled systems beat the bandwidth-limited GPU baseline on the
    # memory-hungry non-GQA 7B model ...
    assert by_model["LLM-7B-32K"][6] > 1.0
    # ... and the GPU's compute advantage narrows the gap on the 72B models
    # (relative speedup decreases from 7B to 72B).
    assert by_model["LLM-72B-32K"][6] < by_model["LLM-7B-32K"][6]
    # GQA workloads remain competitive thanks to DCS hiding the extra
    # input-transfer traffic.
    assert by_model["LLM-7B-128K"][6] > 0.8
