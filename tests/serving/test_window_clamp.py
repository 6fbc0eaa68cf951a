"""One context-window clamp for engine admission, router shadows and prefill pools."""

import pytest

from repro.api.build import build_system
from repro.api.spec import ExperimentSpec, SystemSpec
from repro.serving.disagg.handoff import PrefillPool
from repro.serving.engine import ServingEngine
from repro.serving.interfaces import clamp_to_window
from repro.serving.preemption import EvictLRU, PreemptionConfig
from repro.serving.prefill import PrefillConfig, prefill_model_for
from repro.serving.router import ReplicaState
from repro.system.interconnect import InterconnectConfig
from repro.workloads.traces import Request, RequestTrace


@pytest.mark.parametrize(
    ("prompt", "output", "window", "expected"),
    [
        (100, 20, 1000, (100, 120)),  # fits: untouched
        (990, 20, 1000, (980, 1000)),  # overflow: the prompt gives way
        (50, 2000, 1000, (1, 1000)),  # output alone overflows: one prompt token stays
    ],
)
def test_clamp_to_window(prompt, output, window, expected):
    request = Request(request_id=0, prompt_tokens=prompt, output_tokens=output)
    assert clamp_to_window(request, window) == expected


@pytest.fixture(scope="module")
def pim_only():
    return build_system(ExperimentSpec(system=SystemSpec(kind="pim-only")))


def test_router_shadow_checks_what_the_engine_admits(pim_only):
    """A prompt near the window with a long output: router and engine agree.

    The router used to clamp only the prompt to the window while the engine
    cuts the final context to it, so the shadow allocator checked (and the
    TTFT estimate priced) ~1,900 more prompt tokens than the engine admits.
    """
    window = pim_only.max_context_tokens
    request = Request(request_id=7, prompt_tokens=window - 100, output_tokens=2000)
    prefill = PrefillConfig(prefill_model_for(pim_only))
    engine = ServingEngine(
        system=pim_only, prefill=prefill, preemption=PreemptionConfig(policy=EvictLRU())
    )
    assert engine.lifecycle_admission
    (candidate,) = engine._candidates(RequestTrace(dataset="edge", requests=(request,)))
    assert candidate.prompt_tokens == window - 2000

    replica = ReplicaState(0, engine)
    prefill_s = prefill.model.cumulative_seconds(candidate.prompt_tokens)
    assert replica.estimated_ttft_s(request) == replica.est_step_s + prefill_s
    replica.assign(request, now_s=0.0)
    shadow = replica.shadow
    assert shadow.committed_chunks_for(7) == shadow.chunks_needed(candidate.prompt_tokens)


def test_prefill_pool_prices_the_clamped_prompt(pim_only):
    window = pim_only.max_context_tokens
    request = Request(request_id=3, prompt_tokens=window - 100, output_tokens=2000)
    prefill = PrefillConfig(prefill_model_for(pim_only))
    pool = PrefillPool(system=pim_only, prefill=prefill, replicas=1, link=InterconnectConfig())
    phase = pool.run(RequestTrace(dataset="edge", requests=(request,)))
    prompt, _ = clamp_to_window(request, window)
    assert phase.handoffs[3].prefill_s == prefill.model.cumulative_seconds(prompt)
