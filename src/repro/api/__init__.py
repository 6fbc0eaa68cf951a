"""Declarative experiment API: specs, registries, builder, unified reports.

One front door for every serving experiment::

    from repro.api import ExperimentSpec, SystemSpec, TraceSpec, run

    spec = ExperimentSpec(
        name="pim-only-qmsum",
        system=SystemSpec(kind="pim-only", pimphony="full"),
        trace=TraceSpec(source="dataset", dataset="qmsum", num_requests=16),
        step_stride=8,
    )
    report = run(spec)           # -> RunReport, engine or fleet alike
    print(report.summary_table())

Specs serialize (``to_dict``/``from_dict``/JSON) so the same experiment
runs from a checked-in file via ``python -m repro run spec.json`` -- with
``--set`` overrides and ``--sweep`` cartesian sweeps.  Components are
resolved through string-keyed registries (:mod:`repro.api.registry`),
which list the built-ins by module path and import each on first use;
``register_system`` / ``register_admission_policy`` /
``register_routing_policy`` / ``register_preemption_policy`` /
``register_prefill_model`` / ``register_trace`` /
``register_arrival_process`` extend the vocabulary.

This module lazily imports its submodules (PEP 562), so importing one
name loads only the submodule that defines it.
"""

from importlib import import_module
from typing import Any

_EXPORTS = {
    # registry
    "Registry": "registry",
    "register_system": "registry",
    "register_admission_policy": "registry",
    "register_routing_policy": "registry",
    "register_preemption_policy": "registry",
    "register_prefill_model": "registry",
    "register_trace": "registry",
    "register_arrival_process": "registry",
    "SYSTEMS": "registry",
    "ADMISSION_POLICIES": "registry",
    "ROUTING_POLICIES": "registry",
    "PREEMPTION_POLICIES": "registry",
    "PREFILL_MODELS": "registry",
    "TRACES": "registry",
    "ARRIVAL_PROCESSES": "registry",
    # spec
    "ExperimentSpec": "spec",
    "ArrivalSpec": "spec",
    "AutoscalerSpec": "spec",
    "BurstSpec": "spec",
    "DisaggSpec": "spec",
    "FleetEventSpec": "spec",
    "WarpPhaseSpec": "spec",
    "ModelSpec": "spec",
    "SystemSpec": "spec",
    "ParallelismSpec": "spec",
    "AllocatorSpec": "spec",
    "EngineSpec": "spec",
    "AdmissionSpec": "spec",
    "PreemptionSpec": "spec",
    "PrefillSpec": "spec",
    "PrefixCacheSpec": "spec",
    "TierSpec": "spec",
    "TraceSpec": "spec",
    "RouterSpec": "spec",
    "apply_override": "spec",
    "PIMPHONY_PRESETS": "spec",
    "TOPOLOGIES": "spec",
    # build
    "BuiltExperiment": "build",
    "build": "build",
    "build_model": "build",
    "build_system": "build",
    "build_trace": "build",
    "derived_seeds": "build",
    "run": "build",
    "sweep_specs": "build",
    # report
    "DisaggReport": "report",
    "FleetTimelineReport": "report",
    "RunReport": "report",
    "TierReport": "report",
    # cli
    "main": "cli",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    value = getattr(import_module(f"repro.api.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
