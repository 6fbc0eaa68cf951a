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
