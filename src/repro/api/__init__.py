"""Declarative experiment API: specs, registries, builder, unified reports.

One front door for every serving experiment::

    from repro import ExperimentSpec, SystemSpec, TraceSpec, run

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

The package re-exports nothing: import a name from the submodule that
defines it (:mod:`~repro.api.spec`, :mod:`~repro.api.registry`,
:mod:`~repro.api.build`, :mod:`~repro.api.report`, :mod:`~repro.api.cli`)
or from the curated top-level :mod:`repro` surface.
"""
