"""Fig. 17 reproduction: scalability with system capacity and context length.

(a) throughput vs capacity (128GB--1TB) at a 64K-context workload;
(b)/(c) throughput vs context length (4K--1M) on a fixed 512GB system for
the PIM-only (CENT) and xPU+PIM (NeuPIMs) deployments, baseline vs PIMphony.
"""

from benchmarks._helpers import emit, run_once
from repro.analysis.reporting import format_table
from repro.baselines.cent import cent_system_config
from repro.baselines.neupims import neupims_system_config
from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import get_model
from repro.serving.engine import serve
from repro.workloads.datasets import synthetic_dataset
from repro.workloads.traces import generate_trace

CAPACITY_SWEEP_GB = [128, 256, 512, 1024]
CONTEXT_SWEEP = [4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024]
MODULE_GB = {"cent": 16, "neupims": 32}


def _context_dataset(context: int):
    """A 3-sigma-spread context distribution centred on ``context``."""
    spread = max(64, context // 6)
    return synthetic_dataset(
        name=f"ctx-{context}",
        mean=float(context),
        std=float(spread),
        minimum=max(64, context - 3 * spread),
        maximum=context + 3 * spread,
        output_tokens=16,
    )


def _run(system_factory, model, num_modules, config, context, requests=12):
    dataset = _context_dataset(context)
    trace = generate_trace(dataset, requests, seed=0, context_window=model.context_window)
    system = system_factory(model, num_modules=num_modules, pimphony=config)
    return serve(system, trace, step_stride=8)


def build_fig17():
    model = get_model("LLM-7B-128K").with_context_window(2 * 1024 * 1024)
    capacity_rows = []
    for gigabytes in CAPACITY_SWEEP_GB:
        for name, factory in (("cent", cent_system_config), ("neupims", neupims_system_config)):
            modules = gigabytes // MODULE_GB[name]
            result = _run(factory, model, modules, PIMphonyConfig.full(), 64 * 1024)
            capacity_rows.append([name, gigabytes, result.throughput_tokens_per_s])

    context_rows = []
    speedups = {}
    for name, factory in (("cent", cent_system_config), ("neupims", neupims_system_config)):
        modules = 512 // MODULE_GB[name]
        for context in CONTEXT_SWEEP:
            requests = 12 if context <= 256 * 1024 else 4
            baseline = _run(factory, model, modules, PIMphonyConfig.baseline(), context, requests)
            pimphony = _run(factory, model, modules, PIMphonyConfig.full(), context, requests)
            speedup = (
                pimphony.throughput_tokens_per_s / baseline.throughput_tokens_per_s
                if baseline.throughput_tokens_per_s
                else float("inf")
            )
            speedups[(name, context)] = speedup
            context_rows.append(
                [
                    name,
                    context // 1024,
                    baseline.throughput_tokens_per_s,
                    pimphony.throughput_tokens_per_s,
                    speedup,
                    baseline.average_pim_utilization,
                    pimphony.average_pim_utilization,
                ]
            )
    return capacity_rows, context_rows, speedups


def test_fig17_scalability(benchmark):
    capacity_rows, context_rows, speedups = run_once(benchmark, build_fig17)
    emit(
        "Fig. 17(a): PIMphony throughput [tokens/s] vs system capacity at 64K context",
        format_table(["system", "capacity (GB)", "tokens/s"], capacity_rows),
    )
    emit(
        "Fig. 17(b,c): throughput vs context length on 512GB systems (baseline vs PIMphony)",
        format_table(
            ["system", "context (K)", "baseline tok/s", "PIMphony tok/s", "speedup",
             "baseline util", "PIMphony util"],
            context_rows,
        ),
    )
    # (a) throughput grows with capacity for both deployments.
    for name in ("cent", "neupims"):
        series = [row[2] for row in capacity_rows if row[0] == name]
        assert series[-1] > series[0]
    # (b) PIMphony's advantage widens with context length, and is largest on
    # the PIM-only system (the paper reports 46.6x at 1M vs 5x for xPU+PIM).
    assert speedups[("cent", 1024 * 1024)] > speedups[("cent", 4 * 1024)]
    assert speedups[("neupims", 1024 * 1024)] > 1.2
    assert speedups[("cent", 1024 * 1024)] > speedups[("neupims", 1024 * 1024)]
    # Even short contexts retain a gain (paper: ~2.1x at 256 tokens).
    assert speedups[("cent", 4 * 1024)] > 1.2
