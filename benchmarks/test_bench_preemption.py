"""Capacity-pressure benchmark: lifecycle preemption vs up-front commit.

Sweeps oversubscription levels on a single CENT module and compares the
admit-to-completion contract (``preemption.policy="none"``) against
evict-LRU preemption.  The lifecycle contract must admit strictly more
concurrent requests and hold strictly higher allocator utilisation at
every capacity-constrained point, while completing the same work.
"""

from benchmarks._helpers import emit, run_once
from repro.analysis.reporting import format_table
from repro.api.build import run
from repro.api.spec import ExperimentSpec, ModelSpec, PreemptionSpec, SystemSpec, TraceSpec

#: Requests sweeping the pressure from none (8 fit outright) to 2x.
REQUEST_COUNTS = (8, 12, 16)


def pressure_spec(num_requests: int, policy: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"bench-preemption-{policy}-{num_requests}",
        model=ModelSpec(name="LLM-7B-32K"),
        system=SystemSpec(kind="pim-only", num_modules=1, pimphony="full"),
        preemption=PreemptionSpec(policy=policy, mode="swap", swap_bandwidth_gbps=64.0),
        trace=TraceSpec(
            source="synthetic", num_requests=num_requests,
            prompt_tokens=256, output_tokens=512,
        ),
        seed=5,
        step_stride=8,
    )


def build_sweep():
    rows = []
    for num_requests in REQUEST_COUNTS:
        baseline = run(pressure_spec(num_requests, "none"))
        lifecycle = run(pressure_spec(num_requests, "evict-lru"))
        rows.append(
            [
                num_requests,
                baseline.peak_batch_size,
                lifecycle.peak_batch_size,
                baseline.average_capacity_utilization,
                lifecycle.average_capacity_utilization,
                lifecycle.preemptions,
                lifecycle.requeue_delay_mean_s * 1e3,
                baseline.makespan_s,
                lifecycle.makespan_s,
            ]
        )
        # Same work either way.
        assert lifecycle.requests_served == baseline.requests_served == num_requests
        assert lifecycle.total_output_tokens == baseline.total_output_tokens
        if num_requests > 8:
            # Capacity-constrained points: incremental allocation admits
            # strictly more concurrent requests and packs the cache
            # strictly fuller than the up-front-commit baseline.
            assert lifecycle.peak_batch_size > baseline.peak_batch_size
            assert (
                lifecycle.average_capacity_utilization
                > baseline.average_capacity_utilization
            )
            assert lifecycle.preemptions > 0
    return rows


def test_preemption_raises_admissions_and_utilization(benchmark):
    rows = run_once(benchmark, build_sweep)
    emit(
        "KV lifecycle: evict-LRU preemption vs up-front commit on one CENT module "
        "(12 and 16 requests oversubscribe the 3072-chunk KV cache)",
        format_table(
            [
                "requests",
                "peak none",
                "peak lru",
                "util none",
                "util lru",
                "preempt",
                "requeue ms",
                "makespan none",
                "makespan lru",
            ],
            rows,
        ),
    )
