"""Serving-engine benchmark: admission policies and lifecycle metrics.

Not a paper figure: regression coverage for the event-driven engine added on
top of the reproduction.
"""

from __future__ import annotations

from repro.analysis.reporting import serving_summary_table
from repro.baselines.cent import cent_system_config
from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import get_model
from repro.serving.engine import serve
from repro.workloads.datasets import get_dataset
from repro.workloads.traces import generate_trace, poisson_arrivals

from _helpers import emit, run_once


def test_bench_admission_policies_open_loop(benchmark):
    model = get_model("LLM-7B-32K")
    system = cent_system_config(model, pimphony=PIMphonyConfig.full())
    trace = poisson_arrivals(
        generate_trace(
            get_dataset("qmsum"),
            num_requests=48,
            seed=0,
            context_window=model.context_window,
            output_tokens=32,
        ),
        rate_rps=40.0,
        seed=0,
    )

    def evaluate():
        from repro.serving.admission import CapacityAwareAdmission, FCFSAdmission

        return [
            serve(system, trace, admission=policy, step_stride=8, system_name="CENT+PIMphony")
            for policy in (FCFSAdmission(), CapacityAwareAdmission())
        ]

    results = run_once(benchmark, evaluate)
    emit(
        "admission policies under Poisson arrivals",
        serving_summary_table(results),
    )
    fcfs, packed = results
    assert fcfs.total_output_tokens == packed.total_output_tokens
    for result in results:
        assert result.latency.ttft_mean_s > 0
        assert result.latency.latency_p50_s <= result.latency.latency_p99_s
