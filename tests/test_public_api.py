"""The curated public surface: `from repro import *` exposes exactly __all__."""

import repro


def test_star_import_exposes_exactly_all():
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - the point of the test
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(repro.__all__)


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_all_has_no_duplicates():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_documented_api_names_present():
    documented = {
        # engine + router + prefill
        "ServingEngine",
        "ReplicaRouter",
        "FleetResult",
        "PrefillConfig",
        "RoundRobinRouting",
        "SessionAffinityRouting",
        # declarative experiment API
        "ExperimentSpec",
        "RunReport",
        "build",
        "run",
        "sweep_specs",
        "register_system",
        "register_admission_policy",
        "register_routing_policy",
        "register_prefill_model",
        "register_trace",
        # trace helpers incl. the seed-threaded ones
        "generate_trace",
        "poisson_arrivals",
        "random_sessions",
    }
    assert documented <= set(repro.__all__)


def test_internal_result_types_stay_behind_the_api():
    """The unified RunReport is the public result; FleetResult stays importable
    for power users but the loose serving internals are not star-exported."""
    assert "AdmissionCandidate" not in repro.__all__
    assert "LifecycleTracker" not in repro.__all__
