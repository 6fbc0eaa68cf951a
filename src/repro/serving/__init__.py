"""Event-driven decode serving engine (admission / scheduling / metrics).

Layering, from the outside in:

* :mod:`repro.serving.router` -- the data-parallel :class:`ReplicaRouter`
  fronting N engines with pluggable :class:`RoutingPolicy` implementations.
  Its run is the one fleet loop: a timeline sweep over arrivals, fleet
  events and autoscaler ticks, merged into one :class:`FleetResult` that
  every fleet returns (timeline billing included).
* :mod:`repro.serving.fleet_events` -- :class:`DynamicFleetRouter`, the
  router whose replica set changes mid-run through scripted
  failure/recovery events and autoscaler decisions.
* :mod:`repro.serving.autoscaler` -- the :class:`ReactiveAutoscaler`
  threshold controller (queue-depth or estimated-TTFT EWMA signals)
  driving scale-up/scale-down decisions on the timeline.
* :mod:`repro.serving.disagg` -- the disaggregated two-pool topology: a
  dedicated :class:`PrefillPool` handing finished KV to a decode fleet
  over a modelled interconnect (:class:`DisaggRouter`).
* :mod:`repro.serving.admission` -- pluggable :class:`AdmissionPolicy`
  implementations (FCFS, capacity-aware, priority).
* :mod:`repro.serving.engine` -- the :class:`ServingEngine` event loop
  consuming timestamped arrivals.
* :mod:`repro.serving.preemption` -- pluggable :class:`PreemptionPolicy`
  implementations (evict-lru / evict-largest / evict-youngest plus the
  tier-aware evict-priority-* family) with swap or recompute cost models,
  driving the incremental KV lifecycle contract.
* :mod:`repro.serving.prefill` -- context-length-dependent prefill cost
  models (blocking or chunked) that make TTFT reflect prompt length.
* :mod:`repro.serving.prefix_cache` -- per-replica prefix/KV reuse for
  multi-turn sessions (LRU over cached session prefixes, counted in KV
  tokens), discounting prefill and recompute-restore work.
* :mod:`repro.serving.interfaces` -- the :class:`DecodeSystem` and
  :class:`KVLifecycle` protocols plus result types.
* :mod:`repro.serving.lifecycle` -- per-request TTFT/TPOT/latency tracking.
"""

from repro.serving.admission import (
    AdmissionCandidate,
    AdmissionPolicy,
    CapacityAwareAdmission,
    FCFSAdmission,
    PriorityAdmission,
)
from repro.serving.autoscaler import (
    SCALE_DOWN,
    SCALE_UP,
    ReactiveAutoscaler,
    ScalingDecision,
)
from repro.serving.disagg import (
    DisaggRouter,
    HandoffRecord,
    PrefillPhase,
    PrefillPool,
)
from repro.serving.engine import EngineResult, ServingEngine, serve
from repro.serving.fast_engine import FastServingEngine
from repro.serving.fleet_events import (
    DynamicFleetRouter,
    FleetEvent,
    SegmentRecord,
)
from repro.serving.interfaces import (
    CapacityExceeded,
    DecodeSystem,
    KVLifecycle,
    PreemptedState,
    ServingResult,
    StepResult,
    allocator_for,
    build_allocator,
)
from repro.serving.lifecycle import (
    LatencyStats,
    LifecycleTracker,
    RequestRecord,
    WindowStats,
    percentile,
    percentiles,
    windowed_stats,
)
from repro.serving.preemption import (
    EvictLargest,
    EvictLRU,
    EvictPriorityLargest,
    EvictPriorityLRU,
    EvictPriorityYoungest,
    EvictYoungest,
    NoPreemption,
    PreemptionCandidate,
    PreemptionConfig,
    PreemptionCostModel,
    PreemptionPolicy,
)
from repro.serving.prefill import (
    LinearPrefillModel,
    PrefillConfig,
    PrefillModel,
    SupportsPrefill,
    SystemPrefillModel,
    prefill_model_for,
    transformer_prefill_flops,
)
from repro.serving.prefix_cache import PrefixCache, PrefixCacheStats
from repro.serving.router import (
    CapacityAwareRouting,
    FleetResult,
    KVBalancedRouting,
    LeastOutstandingRouting,
    ReplicaRouter,
    ReplicaState,
    RoundRobinRouting,
    RoutingPolicy,
    SessionAffinityRouting,
)

__all__ = [
    "AdmissionCandidate",
    "AdmissionPolicy",
    "CapacityAwareAdmission",
    "FCFSAdmission",
    "PriorityAdmission",
    "DisaggRouter",
    "HandoffRecord",
    "PrefillPhase",
    "PrefillPool",
    "EngineResult",
    "ServingEngine",
    "FastServingEngine",
    "serve",
    "DynamicFleetRouter",
    "FleetEvent",
    "SegmentRecord",
    "SCALE_DOWN",
    "SCALE_UP",
    "ReactiveAutoscaler",
    "ScalingDecision",
    "CapacityExceeded",
    "DecodeSystem",
    "KVLifecycle",
    "PreemptedState",
    "ServingResult",
    "StepResult",
    "allocator_for",
    "build_allocator",
    "EvictLargest",
    "EvictLRU",
    "EvictPriorityLargest",
    "EvictPriorityLRU",
    "EvictPriorityYoungest",
    "EvictYoungest",
    "NoPreemption",
    "PreemptionCandidate",
    "PreemptionConfig",
    "PreemptionCostModel",
    "PreemptionPolicy",
    "LatencyStats",
    "LifecycleTracker",
    "RequestRecord",
    "WindowStats",
    "percentile",
    "percentiles",
    "windowed_stats",
    "LinearPrefillModel",
    "PrefillConfig",
    "PrefillModel",
    "SupportsPrefill",
    "SystemPrefillModel",
    "prefill_model_for",
    "transformer_prefill_flops",
    "PrefixCache",
    "PrefixCacheStats",
    "CapacityAwareRouting",
    "FleetResult",
    "KVBalancedRouting",
    "LeastOutstandingRouting",
    "ReplicaRouter",
    "ReplicaState",
    "RoundRobinRouting",
    "RoutingPolicy",
    "SessionAffinityRouting",
]
