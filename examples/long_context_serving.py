"""Long-context serving: GQA models on LV-Eval workloads, PIM-only vs xPU+PIM.

This is the scenario the paper's introduction motivates: 100K-class contexts
where the KV cache dominates memory and attention dominates the decode step.
The example serves the `multifieldqa` distribution (Table II) on both system
styles -- declaratively, by sweeping ``system.kind`` and ``system.pimphony``
on one :class:`~repro.api.spec.ExperimentSpec` -- and reports how each PIMphony
technique contributes.

The same sweep from the command line:

    python -m repro run examples/specs/xpu_pim_long_context.json \
        --set prefill.mode=none \
        --sweep system.kind=pim-only,xpu-pim \
        --sweep system.pimphony=baseline,tcp,tcp+dcs,full

Run with:  python examples/long_context_serving.py
"""

from repro.analysis.reporting import format_table
from repro.api.build import build, run, sweep_specs
from repro.api.spec import ExperimentSpec, ModelSpec, SystemSpec, TraceSpec


def main() -> None:
    base = ExperimentSpec(
        name="long-context-serving",
        model=ModelSpec(name="LLM-7B-128K"),
        system=SystemSpec(kind="pim-only", pimphony="baseline"),
        trace=TraceSpec(
            source="dataset", dataset="multifieldqa", num_requests=16, output_tokens=32
        ),
        seed=1,
        step_stride=8,
    )
    built = build(base)
    print(
        f"{built.model.name} on {built.trace.dataset} (LV-Eval): mean prompt "
        f"{built.trace.mean_prompt_tokens / 1024:.1f}K tokens, "
        f"KV cache {built.model.kv_bytes_per_token / 1024:.0f} KiB per token"
    )

    variants = sweep_specs(
        base,
        {
            "system.kind": ["pim-only", "xpu-pim"],
            "system.pimphony": ["baseline", "tcp", "tcp+dcs", "full"],
        },
    )
    reports = {
        (overrides["system.kind"], overrides["system.pimphony"]): run(spec)
        for overrides, spec in variants
    }

    for kind, title in (
        ("pim-only", "PIM-only (CENT-class, 8 x 16GB modules)"),
        ("xpu-pim", "xPU+PIM (NeuPIMs-class, 4 x 32GB modules)"),
    ):
        rows = []
        baseline = None
        for preset in ("baseline", "tcp", "tcp+dcs", "full"):
            report = reports[(kind, preset)]
            if baseline is None:
                baseline = report.throughput_tokens_per_s
            rows.append(
                [
                    preset,
                    report.throughput_tokens_per_s,
                    report.average_batch_size,
                    report.average_pim_utilization,
                    report.throughput_tokens_per_s / baseline,
                ]
            )
        print()
        print(
            format_table(
                ["config", "tokens/s", "avg batch", "PIM util", "speedup"],
                rows,
                title=title,
            )
        )


if __name__ == "__main__":
    main()
