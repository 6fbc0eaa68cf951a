"""Quickstart: serve a long-context workload on a PIM system with PIMphony.

This example builds the smallest end-to-end pipeline through the
declarative experiment API:

1. describe the experiment as an :class:`~repro.api.ExperimentSpec`
   (model, system, workload -- all plain data that round-trips to JSON),
2. sweep the PIMphony feature presets with ``with_overrides``,
3. run each spec and compare throughput from the unified ``RunReport``.

The same experiment runs from the command line:

    python -m repro run examples/specs/pim_only_qmsum.json \
        --sweep system.pimphony=baseline,tcp,tcp+dcs,full

Run with:  python examples/quickstart.py
"""

from repro.analysis.reporting import format_table
from repro.api import ExperimentSpec, ModelSpec, SystemSpec, TraceSpec, build, run
from repro.serving import serve


def main() -> None:
    base = ExperimentSpec(
        name="quickstart",
        model=ModelSpec(name="LLM-7B-32K"),
        system=SystemSpec(kind="pim-only", pimphony="baseline"),
        trace=TraceSpec(source="dataset", dataset="qmsum", num_requests=16, output_tokens=32),
        seed=0,
        step_stride=8,
    )
    built = build(base)
    print(
        f"Serving {len(built.trace)} requests of {built.trace.dataset} "
        f"(mean prompt {built.trace.mean_prompt_tokens:.0f} tokens) on {built.model.name}"
    )

    # Parity: the spec-driven run reproduces direct construction exactly.
    direct = serve(built.system, built.trace, step_stride=8)
    spec_driven = run(base)
    assert spec_driven.throughput_tokens_per_s == direct.throughput_tokens_per_s

    rows = []
    baseline_throughput = None
    for preset in ("baseline", "tcp", "tcp+dcs", "full"):
        report = run(base.with_overrides({"system.pimphony": preset}))
        if baseline_throughput is None:
            baseline_throughput = report.throughput_tokens_per_s
        rows.append(
            [
                preset,
                report.throughput_tokens_per_s,
                report.average_batch_size,
                report.average_pim_utilization,
                report.average_capacity_utilization,
                report.throughput_tokens_per_s / baseline_throughput,
            ]
        )

    print()
    print(
        format_table(
            ["config", "tokens/s", "avg batch", "PIM util", "capacity util", "speedup"],
            rows,
            title="CENT-class PIM-only system, LLM-7B-32K on QMSum",
        )
    )


if __name__ == "__main__":
    main()
