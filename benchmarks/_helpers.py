"""Shared helpers for the figure/table reproduction benchmarks.

Every benchmark regenerates the rows or series of one table or figure of the
paper and prints them (they land in ``bench_output.txt`` when the suite is
run with ``pytest benchmarks/ --benchmark-only``).  The timed portion wraps
the main computation once via ``benchmark.pedantic`` so pytest-benchmark
reports a single representative runtime per experiment.
"""

from __future__ import annotations

from repro.core.orchestrator import PIMphonyConfig
from repro.serving.engine import EngineResult, serve
from repro.workloads.datasets import get_dataset
from repro.workloads.traces import generate_trace


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def emit(title: str, text: str) -> None:
    """Print a labelled block so it is easy to find in bench_output.txt."""
    print(f"\n===== {title} =====")
    print(text)
    print("=" * (12 + len(title)))


def serve_workload(
    system_factory,
    model,
    dataset_name: str,
    pimphony: PIMphonyConfig,
    num_requests: int = 20,
    output_tokens: int = 32,
    step_stride: int = 16,
    seed: int = 0,
    **system_kwargs,
) -> EngineResult:
    """Serve a generated trace on a freshly built system (one configuration)."""
    trace = generate_trace(
        get_dataset(dataset_name),
        num_requests=num_requests,
        seed=seed,
        context_window=model.context_window,
        output_tokens=output_tokens,
    )
    system = system_factory(model, pimphony=pimphony, **system_kwargs)
    return serve(
        system,
        trace,
        step_stride=step_stride,
        system_name=f"{type(system).__name__}[{pimphony.label}]",
    )
