"""Router benchmarks: replica scaling, routing policies, prefill TTFT.

Not a paper figure: regression coverage for the PR-2 multi-replica router
and prefill cost model.  Three experiments:

1. **Near-linear scaling** -- the same Poisson workload served by 1/2/4/8
   CENT replicas behind a round-robin router; aggregate throughput (tokens
   over fleet makespan) must reach >=3x at 4 replicas.
2. **Capacity-aware vs round-robin under skew** -- every 4th request
   carries a 8k context on replicas whose KV cache only fits ~4 such
   reservations.  Round-robin aliases all of them onto replica 0, which
   then admits them in capacity-limited waves; capacity-aware spreads the
   reservations through the shadow ``can_admit`` protocol and collapses
   p95 TTFT.
3. **Prefill-aware TTFT** -- with the system's prefill model charged at
   admission, a 4k-context request's TTFT strictly exceeds a 128-context
   request's.
"""

from __future__ import annotations

from repro.analysis.reporting import fleet_summary_table
from repro.baselines.cent import cent_system_config
from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import get_model
from repro.serving.engine import ServingEngine, serve
from repro.serving.prefill import PrefillConfig, prefill_model_for
from repro.serving.router import CapacityAwareRouting, ReplicaRouter, RoundRobinRouting
from repro.workloads.traces import Request, RequestTrace, poisson_arrivals

from _helpers import emit, run_once


def _uniform_poisson_trace(num_requests=192, prompt=512, output=32, rate_rps=2000.0):
    requests = tuple(
        Request(request_id=index, prompt_tokens=prompt, output_tokens=output)
        for index in range(num_requests)
    )
    return poisson_arrivals(
        RequestTrace(dataset="uniform-poisson", requests=requests), rate_rps=rate_rps, seed=0
    )


def test_bench_near_linear_replica_scaling(benchmark):
    model = get_model("LLM-7B-32K")
    system = cent_system_config(model, pimphony=PIMphonyConfig.full())
    trace = _uniform_poisson_trace()

    def sweep():
        fleets = {}
        for num_replicas in (1, 2, 4, 8):
            router = ReplicaRouter.homogeneous(
                lambda: ServingEngine(system=system, max_batch_size=16, step_stride=8),
                num_replicas,
                policy=RoundRobinRouting(),
            )
            fleets[num_replicas] = router.run(trace, system_name="CENT+PIMphony")
        return fleets

    fleets = run_once(benchmark, sweep)
    base = fleets[1].aggregate_throughput_tokens_per_s
    lines = [
        f"{n} replica(s): {fleet.aggregate_throughput_tokens_per_s:8.0f} tokens/s "
        f"(speedup {fleet.aggregate_throughput_tokens_per_s / base:.2f}x, "
        f"makespan {fleet.makespan_s:.2f}s)"
        for n, fleet in fleets.items()
    ]
    emit("replica scaling, Poisson arrivals (192 requests)", "\n".join(lines))

    for n, fleet in fleets.items():
        assert fleet.requests_served == len(trace.requests)
        assert fleet.total_output_tokens == trace.total_output_tokens
    # Acceptance: >=3x aggregate throughput at 4 replicas (measured ~4.0x).
    assert fleets[4].aggregate_throughput_tokens_per_s >= 3.0 * base
    assert fleets[2].aggregate_throughput_tokens_per_s >= 1.6 * base


def test_bench_capacity_aware_beats_round_robin_under_skew(benchmark):
    model = get_model("LLM-7B-32K")
    # Two modules per replica: the KV cache only fits ~4 concurrent
    # 8k-context reservations, making capacity (not compute) the
    # constraint the routing policy has to manage.
    system = cent_system_config(model, num_modules=2, pimphony=PIMphonyConfig.full())
    requests = tuple(
        Request(
            request_id=index,
            prompt_tokens=8192 if index % 4 == 0 else 256,
            output_tokens=32,
        )
        for index in range(64)
    )
    trace = RequestTrace(dataset="skewed-contexts", requests=requests)

    def evaluate():
        fleets = {}
        for policy in (RoundRobinRouting(), CapacityAwareRouting()):
            router = ReplicaRouter.homogeneous(
                lambda: ServingEngine(system=system, step_stride=8), 4, policy=policy
            )
            fleets[policy.name] = (router.dispatch(trace), router.run(trace, "CENT-2mod"))
        return fleets

    fleets = run_once(benchmark, evaluate)
    for name, (_, fleet) in fleets.items():
        emit(f"skewed contexts under {name}", fleet_summary_table(fleet))

    def heavy_histogram(assignments):
        counts = [0, 0, 0, 0]
        for request, assignment in zip(trace.requests, assignments, strict=True):
            if assignment is not None and request.prompt_tokens > 1000:
                counts[assignment] += 1
        return counts

    rr_assignments, rr = fleets["round-robin"]
    ca_assignments, ca = fleets["capacity-aware"]
    # Round-robin aliases the periodic heavy requests onto replica 0;
    # capacity-aware spreads the reservations evenly.
    assert rr.requests_dropped == 0 and ca.requests_dropped == 0
    assert heavy_histogram(rr_assignments) == [16, 0, 0, 0]
    assert max(heavy_histogram(ca_assignments)) <= 5
    # The spread collapses heavy-request queueing: p95 TTFT at least halves
    # (measured ~23x better), at no throughput cost.
    assert ca.latency.ttft_p95_s < 0.5 * rr.latency.ttft_p95_s
    assert ca.total_output_tokens == rr.total_output_tokens


def test_bench_prefill_makes_ttft_context_dependent(benchmark):
    model = get_model("LLM-7B-32K")
    system = cent_system_config(model, pimphony=PIMphonyConfig.full())
    prefill = PrefillConfig(prefill_model_for(system))

    def evaluate():
        results = {}
        for prompt in (128, 4096):
            trace = RequestTrace(
                dataset="single",
                requests=(Request(request_id=0, prompt_tokens=prompt, output_tokens=8),),
            )
            results[prompt] = serve(system, trace, prefill=prefill, system_name="CENT")
        return results

    results = run_once(benchmark, evaluate)
    short, long = results[128], results[4096]
    emit(
        "prefill-aware TTFT (CENT, blocking prefill)",
        f"128-token prompt : TTFT {short.ttft_mean_s * 1e3:9.2f} ms "
        f"(prefill {short.prefill_seconds_total * 1e3:.2f} ms)\n"
        f"4096-token prompt: TTFT {long.ttft_mean_s * 1e3:9.2f} ms "
        f"(prefill {long.prefill_seconds_total * 1e3:.2f} ms)",
    )
    # Acceptance: TTFT must strictly grow with context under the prefill
    # model (it was context-blind before PR 2).
    assert long.ttft_mean_s > short.ttft_mean_s
    assert long.prefill_seconds_total > short.prefill_seconds_total > 0.0
