"""Component registries: lookup errors, duplicates, and extension by name."""

import pytest

from repro.api.build import run
from repro.api.registry import (
    ADMISSION_POLICIES,
    ROUTING_POLICIES,
    SYSTEMS,
    Registry,
    register_admission_policy,
)
from repro.api.spec import AdmissionSpec, ExperimentSpec, TraceSpec


class TestRegistry:
    def test_register_and_get(self):
        registry = Registry("widget")
        registry.register("one", lambda: 1)
        assert registry.get("one")() == 1
        assert "one" in registry
        assert registry.names() == ["one"]

    def test_register_as_decorator(self):
        registry = Registry("widget")

        @registry.register("fn")
        def factory():
            return "made"

        assert registry.get("fn") is factory

    def test_unknown_key_lists_known(self):
        registry = Registry("widget")
        registry.register("alpha", lambda: 1)
        with pytest.raises(KeyError, match="unknown widget 'beta'.*alpha"):
            registry.get("beta")

    def test_duplicate_rejected_without_overwrite(self):
        registry = Registry("widget")
        registry.register("x", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", lambda: 2)
        registry.register("x", lambda: 2, overwrite=True)
        assert registry.get("x")() == 2

    def test_non_callable_rejected(self):
        registry = Registry("widget")
        with pytest.raises(TypeError, match="callable"):
            registry.register("x", 42)

    def test_bad_key_rejected(self):
        registry = Registry("widget")
        with pytest.raises(ValueError, match="non-empty string"):
            registry.register("", lambda: 1)


class TestBuiltinRegistrations:
    def test_builtin_systems_registered(self):
        assert {"pim-only", "xpu-pim", "xpu-only", "gpu"} <= set(SYSTEMS.names())

    def test_builtin_admission_registered(self):
        assert {"fcfs", "capacity-aware", "priority"} <= set(ADMISSION_POLICIES.names())

    def test_builtin_routing_registered(self):
        assert {
            "round-robin",
            "least-outstanding",
            "capacity-aware",
            "session-affinity",
        } <= set(ROUTING_POLICIES.names())


class TestExtension:
    def test_custom_admission_policy_runs_by_name(self):
        """A user-registered policy plugs into specs with no other wiring."""

        class ReverseAdmission:
            name = "reverse"
            head_of_line = False

            def order(self, waiting):
                return list(reversed(waiting))

        register_admission_policy("test-reverse", ReverseAdmission, overwrite=True)
        try:
            spec = ExperimentSpec(
                name="custom-admission",
                admission=AdmissionSpec(policy="test-reverse"),
                trace=TraceSpec(
                    source="synthetic", num_requests=4, output_tokens=4
                ),
                step_stride=4,
            )
            report = run(spec)
            assert report.admission_policy == "reverse"
            assert report.requests_served == 4
        finally:
            ADMISSION_POLICIES._entries.pop("test-reverse", None)
