"""The benchmark's workloads: one ``ExperimentSpec`` dict per name and seed.

Every workload is an open loop: arrivals are stamped by an arrival process
before serving starts, so a slow engine never throttles the generator.  The
seed argument becomes the spec seed, from which the repro build derives the
trace, arrival and session streams; nothing else varies between seeds.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

SpecDict = dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Name passed as ``--workload``.
        why: One-line reason the workload exists (mirrored in BENCHMARK.json).
        spec: Builds the spec dict for a seed and a request count.
        num_requests: Request count of a benchmark run.
    """

    name: str
    why: str
    spec: Callable[[int, int], SpecDict]
    num_requests: int

    def spec_for(self, seed: int, num_requests: int | None = None) -> SpecDict:
        return self.spec(seed, self.num_requests if num_requests is None else num_requests)


def many_short_xpu(seed: int, num_requests: int) -> SpecDict:
    """Short requests on xpu-only: closed-form pricing, per-token bookkeeping."""
    return {
        "name": "many-short-xpu",
        "model": {"name": "LLM-7B-32K", "context_window": 2048},
        "system": {"kind": "xpu-only"},
        "allocator": {"mode": "paged"},
        "engine": {"mode": "fast"},
        "trace": {
            "source": "synthetic",
            "num_requests": num_requests,
            "prompt_tokens": 256,
            "output_tokens": 256,
        },
        "arrival": {"process": "poisson", "rate_rps": 40.0},
        "seed": seed,
        "step_stride": 8,
    }


#: Seconds between long-context arrivals (0.1 requests/s, an open loop).
ARRIVAL_GAP_S = 10.0


def long_context_xpu_pim(seed: int, num_requests: int) -> SpecDict:
    """Long multifieldqa prompts on the paper's xpu-pim system, priced per step."""
    return {
        "name": "long-context-xpu-pim",
        "model": {"name": "LLM-7B-128K"},
        "system": {"kind": "xpu-pim", "pimphony": "full"},
        "engine": {"mode": "fast"},
        "trace": {
            "source": "dataset",
            "dataset": "multifieldqa",
            "num_requests": num_requests,
            "output_tokens": 512,
        },
        # Evenly spaced arrivals: at this load Poisson clustering, not the
        # simulator, would dominate how much batching (and host work) a
        # seed gets; the seed still draws every prompt length.
        "arrival": {
            "process": "replay",
            "times": [index * ARRIVAL_GAP_S for index in range(num_requests)],
        },
        "prefill": {"mode": "chunked", "model": "system", "chunk_tokens": 16384},
        "seed": seed,
        "step_stride": 4,
    }


def pim_fleet_day(seed: int, num_requests: int) -> SpecDict:
    """A pim-only fleet under diurnal load, a failure, autoscaling and preemption."""
    return {
        "name": "pim-fleet-day",
        "model": {"name": "LLM-7B-32K"},
        "system": {"kind": "pim-only", "num_modules": 1, "pimphony": "full"},
        "engine": {"mode": "fast"},
        "admission": {"policy": "fcfs", "max_batch_size": 16},
        "preemption": {"policy": "evict-lru", "mode": "swap", "swap_bandwidth_gbps": 64.0},
        "trace": {
            "source": "synthetic",
            "num_requests": num_requests,
            "prompt_tokens": 256,
            "output_tokens": 256,
            "heavy_every": 8,
            "heavy_prompt_tokens": 4096,
        },
        "arrival": {
            "process": "diurnal",
            "rate_rps": 6.0,
            "period_s": 400.0,
            "amplitude": 0.6,
            "phase_s": 0.0,
        },
        "router": {"replicas": 2, "policy": "least-outstanding"},
        "fleet_events": [
            {"at_s": 120.0, "kind": "replica_down", "replica": 0},
            {"at_s": 160.0, "kind": "replica_up", "replica": 0},
        ],
        "autoscaler": {
            "signal": "queue-depth",
            "scale_up_threshold": 3.0,
            "scale_down_threshold": 1.0,
            "min_replicas": 2,
            "max_replicas": 6,
            "interval_s": 5.0,
            "cooldown_s": 10.0,
            "cold_start_s": 10.0,
        },
        "window_s": 40.0,
        "tiers": [{"name": "standard", "ttft_deadline_s": 2.0}],
        "seed": seed,
        "step_stride": 8,
    }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="many_short_xpu",
            why=(
                "tens of thousands of short requests on xpu-only: closed-form pricing, so "
                "host time is engine and allocator bookkeeping per token; pim.kernels never runs"
            ),
            spec=many_short_xpu,
            num_requests=20_000,
        ),
        Workload(
            name="long_context_xpu_pim",
            why=(
                "20k-120k-token multifieldqa prompts on xpu-pim with PIMphony: no decode_span, "
                "so host time is per-step PIM kernel cycle estimation"
            ),
            spec=long_context_xpu_pim,
            num_requests=150,
        ),
        Workload(
            name="pim_fleet_day",
            why=(
                "pim-only fleet day with diurnal load, a replica failure, autoscaling and "
                "evict-lru swap preemption: the only path through fleet, router and preemption"
            ),
            spec=pim_fleet_day,
            num_requests=1_500,
        ),
    )
}
