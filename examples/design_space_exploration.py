"""Design-space exploration: parallelism plans and system capacity.

PIMphony's benefit depends on how the model is spread across PIM modules.
This example sweeps every valid (TP, PP) plan of an 8-module CENT-class
system for two models -- each plan expressed declaratively through
``parallelism.tensor_parallel`` / ``parallelism.pipeline_parallel`` on an
:class:`~repro.api.spec.ExperimentSpec` -- picks the best plan for the baseline
and for PIMphony, and then scales ``system.num_modules`` to show capacity
scalability (the paper's Fig. 15 and Fig. 17(a) analyses).

Run with:  python examples/design_space_exploration.py
"""

from repro.analysis.reporting import format_table
from repro.api.build import run
from repro.api.spec import ExperimentSpec, ModelSpec, SystemSpec, TraceSpec
from repro.models.llm import get_model
from repro.system.parallelism import enumerate_plans


def base_spec(model_name: str, dataset_name: str, num_requests: int) -> ExperimentSpec:
    return ExperimentSpec(
        name="design-space",
        model=ModelSpec(name=model_name),
        system=SystemSpec(kind="pim-only", num_modules=8, pimphony="full"),
        trace=TraceSpec(
            source="dataset",
            dataset=dataset_name,
            num_requests=num_requests,
            output_tokens=24,
        ),
        seed=0,
        step_stride=8,
    )


def explore_plans(model_name: str, dataset_name: str, num_modules: int = 8) -> None:
    base = base_spec(model_name, dataset_name, num_requests=16).with_overrides(
        {"system.num_modules": num_modules}
    )
    rows = []
    for plan in enumerate_plans(num_modules, get_model(model_name)):
        with_plan = base.with_overrides(
            {
                "parallelism.tensor_parallel": plan.tensor_parallel,
                "parallelism.pipeline_parallel": plan.pipeline_parallel,
            }
        )
        baseline = run(
            with_plan.with_overrides({"system.pimphony": "baseline"})
        ).throughput_tokens_per_s
        pimphony = run(with_plan).throughput_tokens_per_s
        rows.append([str(plan), baseline, pimphony, pimphony / baseline])
    rows.sort(key=lambda row: row[2], reverse=True)
    print()
    print(
        format_table(
            ["plan", "baseline tok/s", "PIMphony tok/s", "speedup"],
            rows,
            title=f"{model_name} on {dataset_name}: parallelism plans over {num_modules} modules",
        )
    )
    print(f"best plan with PIMphony: {rows[0][0]}")


def explore_capacity(model_name: str, dataset_name: str) -> None:
    base = base_spec(model_name, dataset_name, num_requests=24)
    rows = []
    for num_modules in (8, 16, 32, 64):
        report = run(base.with_overrides({"system.num_modules": num_modules}))
        rows.append([num_modules, num_modules * 16, report.throughput_tokens_per_s])
    print()
    print(
        format_table(
            ["modules", "capacity (GB)", "PIMphony tok/s"],
            rows,
            title=f"{model_name} on {dataset_name}: throughput vs system capacity",
        )
    )


def main() -> None:
    explore_plans("LLM-7B-32K", "qmsum")
    explore_plans("LLM-7B-128K", "multifieldqa")
    explore_capacity("LLM-7B-128K", "multifieldqa")


if __name__ == "__main__":
    main()
