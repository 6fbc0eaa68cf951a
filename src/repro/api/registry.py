"""String-keyed component registries behind the declarative experiment API.

An :class:`~repro.api.spec.ExperimentSpec` names every pluggable piece of an
experiment -- the system model, the admission policy, the routing policy,
the prefill model, the trace source -- by a registry key, and
:func:`~repro.api.build.build` resolves those keys here.  The built-in
implementations are listed once, in the registry tables at the end of
this module, as ``"module:attr"`` paths; a built-in's module is imported
the first time :meth:`Registry.get` looks it up, so a run loads only the
components its spec names.  Extending the experiment vocabulary is one
call:

    from repro.api import register_admission_policy

    class DeadlineAdmission: ...

    register_admission_policy("deadline", DeadlineAdmission)

after which ``{"admission": {"policy": "deadline"}}`` works in any spec.

This module imports nothing from the rest of :mod:`repro` at import time,
and no component module imports it.

Registered factory signatures:

* **system** -- ``factory(model, num_modules, plan, pimphony) -> DecodeSystem``
  (``num_modules`` and ``plan`` may be ``None`` for the kind's defaults).
* **admission policy** -- ``factory() -> AdmissionPolicy``.
* **routing policy** -- ``factory() -> RoutingPolicy``.
* **preemption policy** -- ``factory() -> PreemptionPolicy``.
* **prefill model** -- ``factory(system, spec: PrefillSpec) -> PrefillModel``.
* **trace** -- ``factory(spec: TraceSpec, context_window, seed) -> RequestTrace``.
* **arrival process** -- ``factory(trace, spec: ArrivalSpec, seed) -> RequestTrace``
  (attaches arrival timestamps to an already-generated trace).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from importlib import import_module
from typing import Any

#: Factory signatures vary per registry kind (see module docstring).
Factory = Callable[..., Any]


class Registry:
    """A named mapping from string keys to component factories.

    ``builtins`` maps keys to ``"module:attr"`` paths that are imported on
    first lookup; :meth:`register` adds factories directly.
    """

    def __init__(self, kind: str, builtins: Mapping[str, str] | None = None) -> None:
        self.kind = kind
        self._builtins = dict(builtins or {})
        self._entries: dict[str, Factory] = {}

    def register(
        self, name: str, factory: Factory | None = None, *, overwrite: bool = False
    ) -> Factory | Callable[[Factory], Factory]:
        """Register ``factory`` under ``name``; usable as a decorator.

        Args:
            name: Registry key (non-empty string).
            factory: The component factory; omit to use as a decorator.
            overwrite: Allow replacing an existing entry (off by default so
                typos do not silently shadow built-ins).
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} registry keys must be non-empty strings")

        def _add(value: Factory) -> Factory:
            if not callable(value):
                raise TypeError(f"{self.kind} {name!r} must be registered with a callable")
            if name in self and not overwrite:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; "
                    "pass overwrite=True to replace it"
                )
            self._entries[name] = value
            return value

        if factory is None:
            return _add
        return _add(factory)

    def get(self, name: str) -> Factory:
        """Look up a factory; unknown keys list what *is* registered."""
        factory = self._entries.get(name)
        if factory is not None:
            return factory
        path = self._builtins.get(name)
        if path is None:
            known = ", ".join(self.names()) or "<none>"
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered {self.kind} keys: {known}"
            )
        module, _, attr = path.partition(":")
        factory = self._entries[name] = getattr(import_module(module), attr)
        return factory

    def names(self) -> list[str]:
        """Sorted registry keys, built-ins included (none is imported)."""
        return sorted(self._entries.keys() | self._builtins.keys())

    def __contains__(self, name: object) -> bool:
        return name in self._entries or name in self._builtins

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries.keys() | self._builtins.keys())


SYSTEMS = Registry(
    "system",
    {
        "xpu-only": "repro.system.xpu:_build_xpu_only",
        "pim-only": "repro.system.pim_only:_build_pim_only",
        "xpu-pim": "repro.system.xpu_pim:_build_xpu_pim",
        "gpu": "repro.baselines.gpu:_build_gpu",
    },
)
ADMISSION_POLICIES = Registry(
    "admission policy",
    {
        "fcfs": "repro.serving.admission:FCFSAdmission",
        "capacity-aware": "repro.serving.admission:CapacityAwareAdmission",
        "priority": "repro.serving.admission:PriorityAdmission",
    },
)
ROUTING_POLICIES = Registry(
    "routing policy",
    {
        "round-robin": "repro.serving.router:RoundRobinRouting",
        "least-outstanding": "repro.serving.router:LeastOutstandingRouting",
        "capacity-aware": "repro.serving.router:CapacityAwareRouting",
        "kv-balanced": "repro.serving.router:KVBalancedRouting",
        "session-affinity": "repro.serving.router:SessionAffinityRouting",
    },
)
PREEMPTION_POLICIES = Registry(
    "preemption policy",
    {
        "none": "repro.serving.preemption:NoPreemption",
        "evict-lru": "repro.serving.preemption:EvictLRU",
        "evict-largest": "repro.serving.preemption:EvictLargest",
        "evict-youngest": "repro.serving.preemption:EvictYoungest",
        "evict-priority-lru": "repro.serving.preemption:EvictPriorityLRU",
        "evict-priority-largest": "repro.serving.preemption:EvictPriorityLargest",
        "evict-priority-youngest": "repro.serving.preemption:EvictPriorityYoungest",
    },
)
PREFILL_MODELS = Registry(
    "prefill model",
    {
        "system": "repro.serving.prefill:system_prefill_model",
        "linear": "repro.serving.prefill:linear_prefill_model",
    },
)
TRACES = Registry(
    "trace source",
    {
        "dataset": "repro.workloads.traces:_dataset_trace",
        "synthetic": "repro.workloads.traces:_synthetic_trace",
        "multi-turn": "repro.workloads.traces:_multi_turn_source",
    },
)
ARRIVAL_PROCESSES = Registry(
    "arrival process",
    {
        "poisson": "repro.workloads.traces:_poisson_process",
        "replay": "repro.workloads.traces:_replay_process",
        "diurnal": "repro.workloads.traces:_diurnal_process",
        "burst": "repro.workloads.traces:_burst_process",
        "trace-warped": "repro.workloads.traces:_warped_replay_process",
    },
)

register_system = SYSTEMS.register
register_admission_policy = ADMISSION_POLICIES.register
register_routing_policy = ROUTING_POLICIES.register
register_preemption_policy = PREEMPTION_POLICIES.register
register_prefill_model = PREFILL_MODELS.register
register_trace = TRACES.register
register_arrival_process = ARRIVAL_PROCESSES.register

__all__ = [
    "Registry",
    "SYSTEMS",
    "ADMISSION_POLICIES",
    "ROUTING_POLICIES",
    "PREEMPTION_POLICIES",
    "PREFILL_MODELS",
    "TRACES",
    "ARRIVAL_PROCESSES",
    "register_system",
    "register_admission_policy",
    "register_routing_policy",
    "register_preemption_policy",
    "register_prefill_model",
    "register_trace",
    "register_arrival_process",
]
