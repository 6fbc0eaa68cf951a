"""Event-driven serving engine demo: arrivals and admission policies.

Two things the engine adds over the original closed-loop decode loop,
both driven through the declarative experiment API:

1. **Open-loop arrivals** -- requests arrive through a Poisson process
   (``arrival = {process: "poisson", rate_rps: 40}``) and every
   ``RunReport`` carries TTFT / TPOT and end-to-end latency percentiles
   per admission policy.
2. **Pluggable admission** -- the same trace served under different
   ``admission.policy`` values shows the packing/fairness trade-off
   (every fourth request lands in an urgent SLO tier via ``tiers``).

Run with:  python examples/serving_engine_demo.py
"""

from repro.analysis.reporting import serving_summary_table
from repro.api import (
    AdmissionSpec,
    ExperimentSpec,
    ModelSpec,
    SystemSpec,
    TraceSpec,
    build,
    run,
)
from repro.serving import FCFSAdmission, ServingEngine


def admission_policy_comparison(base: ExperimentSpec) -> None:
    spec = base.with_overrides(
        {
            "trace.num_requests": 64,
            "arrival.process": "poisson",
            "arrival.rate_rps": 40.0,
            "tiers": [
                {"name": "urgent", "priority": 5, "share": 0.25},
                {"name": "standard", "priority": 0},
            ],
        }
    )

    # Parity: the FCFS spec run equals a hand-constructed engine run.
    built = build(spec)
    direct = ServingEngine(
        system=built.system, admission=FCFSAdmission(), step_stride=8
    ).run(built.trace)
    assert run(spec).engine_result.latency == direct.latency

    results = [
        run(spec.with_overrides({"admission.policy": policy})).engine_result
        for policy in ("fcfs", "capacity-aware", "priority")
    ]
    print()
    print(
        serving_summary_table(
            results,
            title="LLM-7B-32K on QMSum, Poisson arrivals at 40 req/s, 64 requests",
        )
    )


def main() -> None:
    base = ExperimentSpec(
        name="serving-engine-demo",
        model=ModelSpec(name="LLM-7B-32K"),
        system=SystemSpec(kind="pim-only", pimphony="full"),
        admission=AdmissionSpec(policy="fcfs"),
        trace=TraceSpec(source="dataset", dataset="qmsum", output_tokens=32),
        seed=0,
        step_stride=8,
    )
    print("Serving LLM-7B-32K on a CENT-class PIM system with PIMphony")
    admission_policy_comparison(base)


if __name__ == "__main__":
    main()
