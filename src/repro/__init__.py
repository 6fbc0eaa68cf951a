"""PIMphony reproduction library.

This package reproduces the system described in *PIMphony: Overcoming
Bandwidth and Capacity Inefficiency in PIM-Based Long-Context LLM Inference
System* (HPCA 2026).  It provides:

* ``repro.api`` -- the declarative experiment front door: serializable
  ``ExperimentSpec``s, string-keyed component registries, a ``build``/
  ``run`` composer returning unified ``RunReport``s, and the
  ``python -m repro`` CLI.
* ``repro.models`` -- LLM architectural configurations and decode-step
  workload models (Table I, Fig. 2).
* ``repro.pim`` / ``repro.dram`` -- a DRAM-PIM hardware substrate with a
  command-level simulator, timing and energy models.
* ``repro.compiler`` -- a small tensor IR and lowering passes producing PIM
  instruction streams (the MLIR-based compiler substitute).
* ``repro.memory`` -- static and chunk-based (lazy) KV-cache allocators and
  the VA2PA translation table.
* ``repro.core`` -- the paper's contribution: the ``PIMphonyConfig``
  feature selection (Token-Centric Partitioning (TCP), Dynamic Command
  Scheduling (DCS), Dynamic PIM Access (DPA)), the DCS command scheduler
  and the DPA chunk placement.  TCP is priced in ``repro.system.layers``.
* ``repro.system`` -- multi-node PIM-only and xPU+PIM system models with a
  decode serving loop.
* ``repro.serving`` -- the event-driven serving engine: pluggable admission
  and preemption policies (KV lifecycle with swap/recompute eviction),
  timestamped arrivals, per-request TTFT/TPOT/percentile metrics, prefill
  cost models and the data-parallel replica router with TPOT-EWMA
  feedback.
* ``repro.baselines`` -- CENT-like, NeuPIMs-like, ping-pong buffering and
  GPU (A100 + FlashDecoding + PagedAttention) baselines.
* ``repro.workloads`` -- LongBench / LV-Eval statistical trace generators.
* ``repro.analysis`` -- breakdown / energy / reporting helpers.

``from repro import *`` exposes exactly the curated surface in ``__all__``:
the PIMphony feature configuration, model/dataset lookups, the serving
engine with its admission policies, the replica router with its routing
policies, prefill configuration, trace helpers, and the declarative
experiment API.  It is the one curated surface: each name is imported
from the module that defines it, and the subpackages re-export nothing,
so any other name is imported from its defining module.
"""

# The experiment registries (repro.api.registry) list the built-in systems,
# policies and trace sources by module path and import each on first use,
# so nothing here is imported for its side effects.
from repro.api.build import build, run, sweep_specs
from repro.api.registry import (
    register_admission_policy,
    register_preemption_policy,
    register_prefill_model,
    register_routing_policy,
    register_system,
    register_trace,
)
from repro.api.report import RunReport, TierReport
from repro.api.spec import (
    AdmissionSpec,
    AllocatorSpec,
    EngineSpec,
    ExperimentSpec,
    ModelSpec,
    ParallelismSpec,
    PreemptionSpec,
    PrefillSpec,
    PrefixCacheSpec,
    RouterSpec,
    SystemSpec,
    TierSpec,
    TraceSpec,
)
from repro.core.orchestrator import PIMphonyConfig
from repro.memory.lifecycle import CapacityExceeded, PreemptedState
from repro.models.llm import LLMConfig, get_model, list_models
from repro.serving.admission import CapacityAwareAdmission, FCFSAdmission, PriorityAdmission
from repro.serving.engine import EngineResult, ServingEngine, serve
from repro.serving.fast_engine import FastServingEngine
from repro.serving.preemption import (
    EvictLargest,
    EvictLRU,
    EvictPriorityLargest,
    EvictPriorityLRU,
    EvictPriorityYoungest,
    EvictYoungest,
    PreemptionConfig,
    PreemptionCostModel,
)
from repro.serving.prefill import LinearPrefillModel, PrefillConfig, prefill_model_for
from repro.serving.prefix_cache import PrefixCache, PrefixCacheStats
from repro.serving.router import (
    CapacityAwareRouting,
    FleetResult,
    LeastOutstandingRouting,
    ReplicaRouter,
    RoundRobinRouting,
    SessionAffinityRouting,
)
from repro.workloads.datasets import get_dataset, list_datasets
from repro.workloads.traces import (
    assign_tiers,
    burst_arrivals,
    diurnal_arrivals,
    generate_trace,
    multi_turn_trace,
    partition_trace,
    poisson_arrivals,
    random_sessions,
    replay_arrivals,
    warped_replay_arrivals,
)

__version__ = "1.3.0"

__all__ = [
    # PIMphony configuration + models + datasets
    "PIMphonyConfig",
    "LLMConfig",
    "get_model",
    "list_models",
    "get_dataset",
    "list_datasets",
    # serving engine + admission
    "ServingEngine",
    "FastServingEngine",
    "EngineResult",
    "serve",
    "FCFSAdmission",
    "CapacityAwareAdmission",
    "PriorityAdmission",
    # KV lifecycle + preemption
    "CapacityExceeded",
    "PreemptedState",
    "PreemptionConfig",
    "PreemptionCostModel",
    "EvictLRU",
    "EvictLargest",
    "EvictYoungest",
    "EvictPriorityLRU",
    "EvictPriorityLargest",
    "EvictPriorityYoungest",
    # replica router + routing policies
    "ReplicaRouter",
    "FleetResult",
    "RoundRobinRouting",
    "LeastOutstandingRouting",
    "CapacityAwareRouting",
    "SessionAffinityRouting",
    # prefill
    "PrefillConfig",
    "LinearPrefillModel",
    "prefill_model_for",
    # prefix cache
    "PrefixCache",
    "PrefixCacheStats",
    # traces
    "generate_trace",
    "multi_turn_trace",
    "poisson_arrivals",
    "replay_arrivals",
    "diurnal_arrivals",
    "burst_arrivals",
    "warped_replay_arrivals",
    "partition_trace",
    "random_sessions",
    "assign_tiers",
    # declarative experiment API
    "ExperimentSpec",
    "ModelSpec",
    "SystemSpec",
    "ParallelismSpec",
    "AllocatorSpec",
    "EngineSpec",
    "AdmissionSpec",
    "PreemptionSpec",
    "PrefillSpec",
    "PrefixCacheSpec",
    "TierSpec",
    "TraceSpec",
    "RouterSpec",
    "RunReport",
    "TierReport",
    "build",
    "run",
    "sweep_specs",
    "register_system",
    "register_admission_policy",
    "register_routing_policy",
    "register_preemption_policy",
    "register_prefill_model",
    "register_trace",
    "__version__",
]
