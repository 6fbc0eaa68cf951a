"""Multi-replica serving demo: scaling, routing policies, prefill TTFT.

Three things the replica router adds over a single serving engine, all
expressed declaratively (``router.replicas`` / ``router.policy`` /
``prefill.mode`` axes on one :class:`~repro.api.spec.ExperimentSpec`):

1. **Near-linear scaling** -- the same Poisson workload served by 1/2/4/8
   data-parallel CENT replicas; aggregate throughput (tokens over fleet
   makespan) scales almost linearly because replicas are independent.
2. **Routing policies** -- under skewed context-length traffic on
   capacity-constrained replicas, round-robin aliases every heavy request
   onto one replica while capacity-aware routing (via the shadow
   ``can_admit`` protocol) spreads the KV reservations, collapsing p95
   TTFT.
3. **Prefill-aware TTFT** -- with ``prefill.mode`` set, time-to-first-token
   finally depends on prompt length; the chunked variant interleaves
   prompt processing with ongoing decode.

The fleet scenario also ships as JSON:

    python -m repro run examples/specs/fleet_4replica_poisson.json \
        --sweep router.policy=round-robin,least-outstanding,capacity-aware

Run with:  python examples/multi_replica_scaling.py
"""

from repro.analysis.reporting import format_table
from repro.api.build import build, run
from repro.api.spec import (
    AdmissionSpec,
    ExperimentSpec,
    ModelSpec,
    RouterSpec,
    SystemSpec,
    TraceSpec,
)
from repro.serving.engine import ServingEngine
from repro.serving.router import CapacityAwareRouting, ReplicaRouter


def replica_scaling(base: ExperimentSpec) -> None:
    spec = base.with_overrides(
        {
            "admission.max_batch_size": 16,
            "trace.num_requests": 192,
            "trace.prompt_tokens": 512,
            "trace.output_tokens": 32,
            "arrival.process": "poisson",
            "arrival.rate_rps": 2000.0,
        }
    )
    rows = []
    scale_base = None
    for num_replicas in (1, 2, 4, 8):
        report = run(spec.with_overrides({"router.replicas": num_replicas}))
        throughput = report.aggregate_throughput_tokens_per_s
        if scale_base is None:
            scale_base = throughput
        rows.append([num_replicas, throughput, throughput / scale_base, report.makespan_s])
    print()
    print(
        format_table(
            ["replicas", "tokens/s", "speedup", "makespan s"],
            rows,
            title="Replica scaling: 192 requests, Poisson arrivals at 2000 req/s",
        )
    )


def routing_policy_comparison(base: ExperimentSpec) -> None:
    # Two modules per replica: KV capacity fits only ~4 concurrent
    # 8k-context reservations, so the routing decision is what determines
    # whether heavy requests queue.
    spec = base.with_overrides(
        {
            "system.num_modules": 2,
            "trace.num_requests": 64,
            "trace.prompt_tokens": 256,
            "trace.heavy_every": 4,
            "trace.heavy_prompt_tokens": 8192,
            "trace.output_tokens": 32,
            "router.replicas": 4,
        }
    )

    # Parity: the spec-driven fleet equals a hand-constructed router run.
    capacity_spec = spec.with_overrides({"router.policy": "capacity-aware"})
    built = build(capacity_spec)
    direct = ReplicaRouter.homogeneous(
        lambda: ServingEngine(system=built.system, step_stride=8),
        4,
        policy=CapacityAwareRouting(),
    ).run(built.trace)
    assert run(capacity_spec).latency == direct.latency

    for policy in ("round-robin", "least-outstanding", "capacity-aware"):
        report = run(spec.with_overrides({"router.policy": policy}))
        print()
        print(
            report.summary_table(
                title=f"Skewed contexts (every 4th request 8k tokens) under {policy}"
            )
        )


def prefill_ttft(base: ExperimentSpec) -> None:
    rows = []
    for prompt in (128, 1024, 4096):
        single = base.with_overrides(
            {
                "trace.num_requests": 1,
                "trace.prompt_tokens": prompt,
                "trace.output_tokens": 8,
                "step_stride": 1,
            }
        )
        no_prefill = run(single)
        blocking = run(single.with_overrides({"prefill.mode": "blocking"}))
        chunked = run(
            single.with_overrides(
                {"prefill.mode": "chunked", "prefill.chunk_tokens": 512}
            )
        )
        rows.append(
            [
                prompt,
                no_prefill.ttft_mean_s * 1e3,
                blocking.ttft_mean_s * 1e3,
                chunked.ttft_mean_s * 1e3,
            ]
        )
    print()
    print(
        format_table(
            ["prompt tokens", "no prefill (ms)", "blocking (ms)", "chunked (ms)"],
            rows,
            title="TTFT vs prompt length: context-blind vs prefill-aware",
        )
    )


def main() -> None:
    base = ExperimentSpec(
        name="multi-replica-scaling",
        model=ModelSpec(name="LLM-7B-32K"),
        system=SystemSpec(kind="pim-only", pimphony="full"),
        admission=AdmissionSpec(policy="fcfs"),
        trace=TraceSpec(source="synthetic"),
        router=RouterSpec(replicas=1, policy="round-robin"),
        seed=0,
        step_stride=8,
    )
    print("Routing LLM-7B-32K across data-parallel CENT-class PIM replicas")
    replica_scaling(base)
    routing_policy_comparison(base)
    prefill_ttft(base.with_overrides({"router": None}))


if __name__ == "__main__":
    main()
