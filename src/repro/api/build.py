"""Compose and execute experiments from declarative specs.

:func:`build` resolves every registry key of an
:class:`~repro.api.spec.ExperimentSpec` and assembles the full stack --
model, system, trace (with the seed threaded through generation, arrivals
and sessions), serving engine(s), optional replica router -- without
running anything, so callers can inspect or tweak the pieces.
:func:`run` builds and executes, returning the unified
:class:`~repro.api.report.RunReport`.

The assembled objects are constructed exactly as hand-written experiment
scripts would construct them (same factories, same defaults), which is
what the parity tests in ``tests/api/`` pin: ``run(spec)`` metrics equal a
direct ``ServingEngine``/``ReplicaRouter`` run to the last float.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.registry import (
    ADMISSION_POLICIES,
    ARRIVAL_PROCESSES,
    PREEMPTION_POLICIES,
    PREFILL_MODELS,
    ROUTING_POLICIES,
    SYSTEMS,
    TRACES,
)
from repro.api.report import RunReport
from repro.api.spec import ExperimentSpec
from repro.core.orchestrator import PIMphonyConfig
from repro.models.llm import LLMConfig, get_model
from repro.serving.autoscaler import ReactiveAutoscaler
from repro.serving.disagg.handoff import PrefillPool
from repro.serving.disagg.router import DisaggRouter
from repro.serving.engine import ServingEngine
from repro.serving.fast_engine import FastServingEngine
from repro.serving.fleet_events import DynamicFleetRouter, FleetEvent
from repro.serving.interfaces import DecodeSystem
from repro.serving.preemption import PreemptionConfig, PreemptionCostModel
from repro.serving.prefill import PrefillConfig
from repro.serving.prefix_cache import PrefixCache
from repro.serving.router import ReplicaRouter
from repro.system.interconnect import InterconnectConfig
from repro.system.parallelism import ParallelismPlan
from repro.workloads.traces import (
    RequestTrace,
    assign_tiers,
    random_sessions,
)

#: PIMphony preset factories keyed by :data:`repro.api.spec.PIMPHONY_PRESETS`.
_PIMPHONY_FACTORIES: dict[str, Callable[[], PIMphonyConfig]] = {
    "baseline": PIMphonyConfig.baseline,
    "tcp": PIMphonyConfig.tcp_only,
    "tcp+dcs": PIMphonyConfig.tcp_dcs,
    "full": PIMphonyConfig.full,
}


def derived_seeds(seed: int) -> tuple[int, int, int]:
    """Derive the (trace, arrival, session) seeds from one experiment seed.

    Uses :class:`numpy.random.SeedSequence` spawning, so the three streams
    are independent yet fully determined by the single spec seed --
    identical specs reproduce identical traces, arrival processes and
    session assignments.
    """
    children = np.random.SeedSequence(seed).spawn(3)
    trace_seed, arrival_seed, session_seed = (
        int(child.generate_state(1)[0]) for child in children
    )
    return (trace_seed, arrival_seed, session_seed)


def build_model(spec: ExperimentSpec) -> LLMConfig:
    """Resolve the model name (honouring a context-window override)."""
    model = get_model(spec.model.name)
    if spec.model.context_window is not None:
        model = model.with_context_window(spec.model.context_window)
    return model


def build_system(spec: ExperimentSpec, model: LLMConfig | None = None) -> DecodeSystem:
    """Assemble the system model named by ``spec.system.kind``."""
    model = model if model is not None else build_model(spec)
    pimphony = _PIMPHONY_FACTORIES[spec.system.pimphony]()
    if spec.allocator.mode != "auto":
        pimphony = dataclasses.replace(pimphony, dpa=spec.allocator.mode == "paged")
    plan = None
    if spec.parallelism.tensor_parallel is not None:
        plan = ParallelismPlan(
            tensor_parallel=spec.parallelism.tensor_parallel,
            pipeline_parallel=spec.parallelism.pipeline_parallel,
        )
    num_modules = spec.system.num_modules
    if num_modules is None and plan is not None:
        num_modules = plan.num_modules
    builder = SYSTEMS.get(spec.system.kind)
    return builder(model, num_modules, plan, pimphony)


def build_trace(spec: ExperimentSpec, model: LLMConfig | None = None) -> RequestTrace:
    """Build the trace with the experiment seed threaded all the way through."""
    model = model if model is not None else build_model(spec)
    trace_seed, arrival_seed, session_seed = derived_seeds(spec.seed)
    source = TRACES.get(spec.trace.source)
    trace = source(spec.trace, model.context_window, trace_seed)
    if spec.arrival is not None:
        process = ARRIVAL_PROCESSES.get(spec.arrival.process)
        trace = process(trace, spec.arrival, arrival_seed)
    if spec.trace.num_sessions > 0 and not any(
        request.session is not None for request in trace.requests
    ):
        # Sources that already tag sessions (e.g. "multi-turn") keep their
        # layout; random assignment would sever the prefix relation.
        trace = random_sessions(trace, spec.trace.num_sessions, seed=session_seed)
    if spec.tiers:
        trace = assign_tiers(trace, spec.tiers)
    return trace


def _preemption_factory(spec: ExperimentSpec) -> Callable[[], PreemptionConfig | None]:
    """Per-engine preemption config factory for ``spec``.

    ``policy="none"`` yields ``None`` so engines take the exact legacy
    admit-to-completion code path (the parity guarantee); anything else
    yields a fresh policy instance per engine with the spec's cost model.
    """
    if spec.preemption.policy == "none":
        return lambda: None
    policy_factory = PREEMPTION_POLICIES.get(spec.preemption.policy)
    cost = PreemptionCostModel(
        mode=spec.preemption.mode,
        swap_bandwidth_bytes_per_s=spec.preemption.swap_bandwidth_gbps * 1e9,
        recompute_per_token_s=spec.preemption.recompute_per_token_s,
    )
    return lambda: PreemptionConfig(policy=policy_factory(), cost=cost)


@dataclass
class BuiltExperiment:
    """The assembled-but-not-yet-run pieces of one experiment.

    ``router`` is ``None`` for single-engine specs, in which case
    ``engines`` holds exactly one engine.  Every fleet sets ``router`` and
    ``engines`` holds its initial replicas.  A spec declaring fleet events
    or an autoscaler gets a :class:`DynamicFleetRouter`, which builds the
    engines of segments opened mid-run itself.  ``disagg`` is set only for
    the disaggregated topology; ``router`` then holds its decode pool.
    """

    spec: ExperimentSpec
    model: LLMConfig
    system: DecodeSystem
    trace: RequestTrace
    engines: tuple[ServingEngine, ...]
    router: ReplicaRouter | None
    disagg: DisaggRouter | None = None

    @property
    def engine(self) -> ServingEngine:
        """The single engine; raises for fleet experiments."""
        if self.router is not None:
            raise ValueError("experiment runs a router fleet; use .router")
        return self.engines[0]

    def run(self) -> RunReport:
        """Serve the trace to completion and wrap the unified report."""
        if self.disagg is not None:
            return RunReport.from_disagg(self.spec, self.disagg.run(self.trace))
        if isinstance(self.router, DynamicFleetRouter):
            return RunReport.from_dynamic(self.spec, self.router.run(self.trace))
        if self.router is not None:
            return RunReport.from_fleet(self.spec, self.router.run(self.trace))
        result = self.engines[0].run(self.trace)
        return RunReport.from_engine(self.spec, result)


def build(spec: ExperimentSpec) -> BuiltExperiment:
    """Validate ``spec`` and assemble the full engine-or-fleet stack."""
    spec.validate()
    model = build_model(spec)
    system = build_system(spec, model)
    trace = build_trace(spec, model)

    prefill = None
    if spec.prefill.mode != "none":
        prefill_model = PREFILL_MODELS.get(spec.prefill.model)(system, spec.prefill)
        chunk = spec.prefill.chunk_tokens if spec.prefill.mode == "chunked" else None
        prefill = PrefillConfig(model=prefill_model, chunk_tokens=chunk)

    admission_factory = ADMISSION_POLICIES.get(spec.admission.policy)
    preemption_factory = _preemption_factory(spec)
    engine_cls = FastServingEngine if spec.engine.mode == "fast" else ServingEngine

    def engine_factory(engine_prefill: PrefillConfig | None = prefill) -> ServingEngine:
        # One PrefixCache per engine: prefixes live on the replica that
        # served them, which is what session-affinity routing exploits.
        prefix_cache = (
            PrefixCache(capacity_tokens=spec.prefix_cache.capacity_tokens)
            if spec.prefix_cache.enabled
            else None
        )
        return engine_cls(
            system=system,
            admission=admission_factory(),
            max_batch_size=spec.admission.max_batch_size,
            step_stride=spec.step_stride,
            prefill=engine_prefill,
            preemption=preemption_factory(),
            prefix_cache=prefix_cache,
        )

    if spec.router is None:
        return BuiltExperiment(
            spec=spec,
            model=model,
            system=system,
            trace=trace,
            engines=(engine_factory(),),
            router=None,
        )

    router: ReplicaRouter
    disagg: DisaggRouter | None = None
    disagg_spec = spec.router.disagg
    if spec.fleet_events or spec.autoscaler is not None:
        # Dynamic fleet: replicas come and go mid-run, so the router keeps
        # the engine factory for segments opened mid-run.  Validation has
        # already pinned the colocated topology.
        scaler = None
        if spec.autoscaler is not None:
            scaler = ReactiveAutoscaler(
                signal=spec.autoscaler.signal,
                scale_up_threshold=spec.autoscaler.scale_up_threshold,
                scale_down_threshold=spec.autoscaler.scale_down_threshold,
                min_replicas=spec.autoscaler.min_replicas,
                max_replicas=spec.autoscaler.max_replicas,
                interval_s=spec.autoscaler.interval_s,
                cooldown_s=spec.autoscaler.cooldown_s,
                cold_start_s=spec.autoscaler.cold_start_s,
                ewma_alpha=spec.autoscaler.ewma_alpha,
            )
        router = DynamicFleetRouter(
            engine_factory,
            initial_replicas=spec.router.replicas,
            policy=ROUTING_POLICIES.get(spec.router.policy)(),
            events=[
                FleetEvent(at_s=event.at_s, kind=event.kind, replica=event.replica)
                for event in spec.fleet_events
            ],
            autoscaler=scaler,
            probe_context_tokens=spec.router.probe_context_tokens,
        )
    elif (
        spec.router.topology == "disaggregated"
        and disagg_spec is not None
        and disagg_spec.prefill_replicas > 0
    ):
        # Two-pool fleet: dedicated prefill replicas hand finished KV to a
        # decode pool over a priced link.  Decode engines carry no prefill
        # config -- prompts never prefill there -- and validation has
        # already guaranteed chunked prefill is configured for the pool.
        assert prefill is not None
        prefill_pool = PrefillPool(
            system=system,
            prefill=prefill,
            replicas=disagg_spec.prefill_replicas,
            link=InterconnectConfig(
                bandwidth_bytes_per_s=disagg_spec.link_bandwidth_bytes_per_s,
                latency_s=disagg_spec.link_latency_s,
            ),
        )
        router = ReplicaRouter.homogeneous(
            lambda: engine_factory(None),
            spec.router.replicas - disagg_spec.prefill_replicas,
            policy=ROUTING_POLICIES.get(disagg_spec.decode_policy)(),
            probe_context_tokens=spec.router.probe_context_tokens,
            ewma_alpha=spec.router.ewma_alpha,
        )
        disagg = DisaggRouter(prefill_pool=prefill_pool, decode_router=router)
    else:
        router = ReplicaRouter.homogeneous(
            engine_factory,
            spec.router.replicas,
            policy=ROUTING_POLICIES.get(spec.router.policy)(),
            probe_context_tokens=spec.router.probe_context_tokens,
            ewma_alpha=spec.router.ewma_alpha,
        )
    return BuiltExperiment(
        spec=spec,
        model=model,
        system=system,
        trace=trace,
        engines=tuple(router.replicas),
        router=router,
        disagg=disagg,
    )


def run(spec: ExperimentSpec) -> RunReport:
    """Build and execute one spec, returning the unified report."""
    return build(spec).run()


def sweep_specs(
    base: ExperimentSpec | Mapping[str, Any],
    axes: Mapping[str, Iterable[Any]],
) -> list[tuple[dict[str, Any], ExperimentSpec]]:
    """Expand a cartesian sweep over dotted-path axes into concrete specs.

    Args:
        base: The spec (or its dict form) every variant starts from.
        axes: Dotted paths to lists of values, e.g.
            ``{"system.pimphony": ["baseline", "full"],
            "router.replicas": [1, 4]}``.

    Returns:
        ``(overrides, spec)`` pairs in deterministic (row-major, axes in
        insertion order) sweep order; with no axes, the base spec alone.
    """
    base_spec = base if isinstance(base, ExperimentSpec) else ExperimentSpec.from_dict(base)
    variants: list[dict[str, Any]] = [{}]
    for path, values in axes.items():
        values = list(values)
        if not values:
            raise ValueError(f"sweep axis {path!r} has no values")
        variants = [{**variant, path: value} for variant in variants for value in values]
    # with_overrides re-serializes the base spec per variant, so variants
    # can never alias each other's nested sub-spec data.
    return [(overrides, base_spec.with_overrides(overrides)) for overrides in variants]


__all__ = [
    "BuiltExperiment",
    "build",
    "build_model",
    "build_system",
    "build_trace",
    "derived_seeds",
    "run",
    "sweep_specs",
]
