"""RPR004: every ``*Spec`` field must survive the serialization round trip.

``ExperimentSpec`` is the repo's reproduction contract: runs are driven
from checked-in JSON, reports embed the spec, and ``spec_hash`` pins
provenance across PRs.  A field that silently drops out of
``to_dict``/``from_dict`` (a conditional ``del`` without a restore path,
a ``from_dict`` that forgets a key) corrupts experiments *quietly* --
the run still executes, just not the one the JSON described.

This is a cross-module project rule, not a per-file AST pattern: it
imports the real :mod:`repro.api.spec`, then

1. exercises **every field of every Spec dataclass** with a non-default
   value injected into the dict form, asserting the value survives
   ``from_dict`` -> instance -> ``to_dict``;
2. parses and ``validate()``-s **every shipped example spec**
   (``examples/specs/*.json``), so a registry key referenced by a spec
   that nothing registers anymore fails lint, not a user's run;
3. checks the **PIMphony preset vocabulary** stays in sync between
   ``spec.PIMPHONY_PRESETS`` and the build-side factory table.

A field the rule cannot exercise with any candidate value is itself a
finding: extend ``_EXERCISE_BASES`` or the candidate pool alongside the
new field (see CONTRIBUTING).
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib
import json
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import Any

from repro.devtools.lint.core import Finding, LintProject, Rule

#: Path suffix that gates the rule: it only runs when the linted tree
#: actually contains the spec module (so fixture-directory lint runs in
#: the test suite do not drag the whole API surface in).
SPEC_MODULE_SUFFIX = "repro/api/spec.py"

#: Alternative base specs used to exercise fields whose validation
#: demands companions (parallelism must be set in pairs, router fields
#: need a router, tier fields need tiers, ...).
_EXERCISE_BASES: tuple[dict[str, Any], ...] = (
    {},
    {
        "router": {"replicas": 2},
        "tiers": [
            {"name": "lint-premium", "priority": 5, "share": 0.5},
            {"name": "lint-rest"},
        ],
        "trace": {"num_sessions": 4},
        "arrival": {"process": "poisson", "rate_rps": 2.0},
        "parallelism": {"tensor_parallel": 2, "pipeline_parallel": 1},
        "preemption": {"starvation_limit": 3},
    },
    {
        "router": {
            "replicas": 4,
            "topology": "disaggregated",
            "disagg": {"prefill_replicas": 1},
        },
        "prefill": {"mode": "chunked", "chunk_tokens": 256},
    },
    {
        "router": {"replicas": 3},
        "arrival": {
            "process": "diurnal",
            "rate_rps": 2.0,
            "period_s": 120.0,
            "amplitude": 0.6,
            "phase_s": 30.0,
            "bursts": [{"start_s": 10.0, "duration_s": 5.0, "multiplier": 3.0}],
            "warp": [{"start_s": 5.0, "factor": 1.5}],
        },
        "fleet_events": [
            {"at_s": 30.0, "kind": "replica_down", "replica": 1},
            {"at_s": 60.0, "kind": "replica_up", "replica": 1},
        ],
        "autoscaler": {
            "signal": "ttft-ewma",
            "scale_up_threshold": 0.5,
            "scale_down_threshold": 0.1,
            "min_replicas": 2,
            "max_replicas": 6,
            "interval_s": 10.0,
            "cooldown_s": 20.0,
            "cold_start_s": 15.0,
            "ewma_alpha": 0.4,
        },
        "window_s": 30.0,
    },
)

_MISSING = object()


def _deep_copy(data: dict[str, Any]) -> dict[str, Any]:
    return json.loads(json.dumps(data))


def _dig(data: Any, path: Sequence[Any]) -> Any:
    node = data
    for part in path:
        if isinstance(node, dict):
            if part not in node:
                return _MISSING
            node = node[part]
        elif isinstance(node, (list, tuple)):
            if not isinstance(part, int) or part >= len(node):
                return _MISSING
            node = node[part]
        else:
            return _MISSING
    return node


def _set_path(data: Any, path: Sequence[Any], value: Any) -> None:
    node = data
    for part in path[:-1]:
        node = node.setdefault(part, {}) if isinstance(node, dict) else node[part]
    node[path[-1]] = value


def _equivalent(a: Any, b: Any) -> bool:
    """Value equality that treats JSON lists and spec tuples alike."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_equivalent(x, y) for x, y in zip(a, b, strict=True))
    if isinstance(a, bool) is not isinstance(b, bool):
        return False
    return bool(a == b)


class SpecRoundTripRule(Rule):
    code = "RPR004"
    name = "spec-round-trip"
    description = (
        "Every *Spec dataclass field survives to_dict/from_dict, and every "
        "registry key referenced by examples/specs/*.json resolves."
    )

    def check_project(self, project: LintProject) -> Iterator[Finding]:
        spec_module = project.find_module(SPEC_MODULE_SUFFIX)
        if spec_module is None:
            return
        try:
            # importlib rather than ``from repro.api import spec``: the lazy
            # PEP-562 ``repro.api`` namespace resolves attribute access to
            # the *exported callables* (e.g. ``build`` the function), not
            # the submodules.
            registry_mod = importlib.import_module("repro.api.registry")
            spec_mod = importlib.import_module("repro.api.spec")
        except Exception as error:  # pragma: no cover - import breakage
            yield Finding(
                code=self.code,
                rule=self.name,
                path=spec_module.display_path,
                line=1,
                column=1,
                message=f"cannot import repro.api for the round-trip check: {error}",
            )
            return

        class_lines = {
            node.name: node.lineno
            for node in ast.walk(spec_module.tree)
            if isinstance(node, ast.ClassDef)
        }

        def anchored(message: str, line: int) -> Finding:
            return Finding(
                code=self.code,
                rule=self.name,
                path=spec_module.display_path,
                line=line,
                column=1,
                message=message,
            )

        yield from self._check_fields(spec_mod, registry_mod, class_lines, anchored)
        yield from self._check_examples(project, spec_mod)
        yield from self._check_preset_sync(spec_module, spec_mod, anchored)

    # -- 1. per-field round-trip survival ----------------------------------

    def _string_pool(self, spec_mod: Any, registry_mod: Any) -> list[str]:
        pool: set[str] = set()
        for name in dir(spec_mod):
            value = getattr(spec_mod, name)
            if (
                isinstance(value, tuple)
                and value
                and all(isinstance(item, str) for item in value)
            ):
                pool.update(value)
        for name in dir(registry_mod):
            value = getattr(registry_mod, name)
            if hasattr(value, "names") and callable(value.names):
                with contextlib.suppress(TypeError):
                    pool.update(value.names())
        return sorted(pool)

    def _candidates(self, default: Any, pool: Sequence[str]) -> Iterator[Any]:
        if isinstance(default, bool):
            yield not default
            return
        if isinstance(default, int):
            yield default + 1
            yield default + 2
            yield 7
            return
        if isinstance(default, float):
            yield default + 0.25
            yield 0.5
            yield 1.5
            return
        if isinstance(default, str):
            yield from (item for item in pool if item != default)
            yield default + "-lint"
            return
        if isinstance(default, (list, tuple)):
            yield [1, 2]
            yield [0]
            return
        # ``None`` default: the runtime type is unknowable, try each shape.
        yield 2
        yield 3
        yield 0.25
        yield [1, 2]
        yield from pool

    @staticmethod
    def _is_instance(value: Any) -> bool:
        return dataclasses.is_dataclass(value) and not isinstance(value, type)

    @classmethod
    def _is_instance_list(cls, value: Any) -> bool:
        return (
            isinstance(value, tuple)
            and bool(value)
            and all(cls._is_instance(item) for item in value)
        )

    def _structured_keys(self, bases: Sequence[Any]) -> set[tuple[str, str]]:
        """(class, field) pairs holding sub-spec structure on *any* base.

        Such fields are exercised through their sub-fields on the base
        that populates them, never as scalars -- otherwise ``router:
        None`` (or ``fleet_events: ()``) on the default base would demand
        a scalar candidate no validation can accept.
        """
        structured: set[tuple[str, str]] = set()

        def collect(obj: Any) -> None:
            for field in dataclasses.fields(obj):
                value = getattr(obj, field.name)
                if self._is_instance(value):
                    structured.add((type(obj).__name__, field.name))
                    collect(value)
                elif self._is_instance_list(value):
                    structured.add((type(obj).__name__, field.name))
                    for item in value:
                        collect(item)

        for base in bases:
            if base is not None:
                collect(base)
        return structured

    def _field_sites(
        self, spec_mod: Any, bases: Sequence[Any]
    ) -> Iterator[tuple[str, str, tuple[Any, ...], Any, int]]:
        """Yield (class_name, field_name, dict_path, default, base_index).

        Walks each base recursively: sub-spec dataclasses and lists of
        dataclasses (tiers, bursts, warp phases, fleet events) descend to
        their leaf fields at any depth; everything else is a scalar site.
        """
        structured = self._structured_keys(bases)

        def walk(obj: Any, path: tuple[Any, ...], base_index: int) -> Iterator[
            tuple[str, str, tuple[Any, ...], Any, int]
        ]:
            class_name = type(obj).__name__
            for field in dataclasses.fields(obj):
                value = getattr(obj, field.name)
                if self._is_instance(value):
                    yield from walk(value, (*path, field.name), base_index)
                elif self._is_instance_list(value):
                    for index, item in enumerate(value):
                        yield from walk(item, (*path, field.name, index), base_index)
                elif (class_name, field.name) not in structured:
                    yield (class_name, field.name, (*path, field.name), value, base_index)

        for base_index, base in enumerate(bases):
            if base is None:
                continue
            yield from walk(base, (), base_index)

    def _check_fields(
        self,
        spec_mod: Any,
        registry_mod: Any,
        class_lines: dict[str, int],
        anchored: Any,
    ) -> Iterator[Finding]:
        pool = self._string_pool(spec_mod, registry_mod)
        bases: list[Any] = []
        base_dicts: list[dict[str, Any]] = []
        for data in _EXERCISE_BASES:
            try:
                base = spec_mod.ExperimentSpec.from_dict(_deep_copy(data))
            except Exception:
                bases.append(None)
                base_dicts.append({})
                continue
            bases.append(base)
            base_dicts.append(base.to_dict())

        # (class, field) -> survived on at least one base/candidate.
        outcomes: dict[tuple[str, str], bool | None] = {}
        failures: dict[tuple[str, str], str] = {}
        for class_name, field_name, path, default, base_index in self._field_sites(
            spec_mod, bases
        ):
            key = (class_name, field_name)
            if outcomes.get(key):
                continue
            for candidate in self._candidates(default, pool):
                if _equivalent(candidate, default):
                    continue
                mutated = _deep_copy(base_dicts[base_index])
                try:
                    _set_path(mutated, path, candidate)
                    instance = spec_mod.ExperimentSpec.from_dict(mutated)
                except (ValueError, KeyError, TypeError):
                    continue
                held = instance
                for part in path:
                    held = held[part] if isinstance(part, int) else getattr(held, part)
                round_tripped = _dig(instance.to_dict(), path)
                if not _equivalent(held, candidate):
                    failures[key] = (
                        f"{class_name}.{field_name}: from_dict dropped the "
                        f"value (set {candidate!r}, instance holds {held!r})"
                    )
                    outcomes[key] = False
                elif round_tripped is _MISSING or not _equivalent(round_tripped, candidate):
                    missing = "<missing>" if round_tripped is _MISSING else repr(round_tripped)
                    failures[key] = (
                        f"{class_name}.{field_name}: to_dict does not round-trip "
                        f"the value (set {candidate!r}, serialized {missing})"
                    )
                    outcomes[key] = False
                else:
                    outcomes[key] = True
                break
            else:
                outcomes.setdefault(key, None)

        for (class_name, field_name), outcome in sorted(outcomes.items()):
            line = class_lines.get(class_name, 1)
            if outcome is False:
                yield anchored(failures[(class_name, field_name)], line)
            elif outcome is None:
                yield anchored(
                    f"{class_name}.{field_name}: no candidate value passed "
                    "validation, so the round-trip contract is unverified; "
                    "extend the RPR004 exercise bases or candidate pool "
                    "alongside the new field",
                    line,
                )

    # -- 2. shipped example specs resolve and round-trip -------------------

    def _check_examples(self, project: LintProject, spec_mod: Any) -> Iterator[Finding]:
        specs_dir = project.root / "examples" / "specs"
        if not specs_dir.is_dir():
            return
        for path in sorted(specs_dir.glob("*.json")):
            display = project.display(path)

            def example_finding(message: str, display_path: str = display) -> Finding:
                return Finding(
                    code=self.code,
                    rule=self.name,
                    path=display_path,
                    line=1,
                    column=1,
                    message=message,
                )

            try:
                spec = spec_mod.ExperimentSpec.from_json(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as error:
                yield example_finding(f"unparseable example spec: {error}")
                continue
            try:
                spec.validate()
            except (ValueError, KeyError) as error:
                yield example_finding(f"dangling registry reference: {error}")
                continue
            try:
                round_tripped = spec_mod.ExperimentSpec.from_dict(spec.to_dict())
            except (ValueError, KeyError) as error:
                yield example_finding(f"to_dict output is not re-parseable: {error}")
                continue
            if round_tripped != spec:
                yield example_finding(
                    "spec does not survive to_dict/from_dict round trip"
                )

    # -- 3. preset vocabulary stays in sync --------------------------------

    def _check_preset_sync(
        self, spec_module: Any, spec_mod: Any, anchored: Any
    ) -> Iterator[Finding]:
        try:
            build_mod = importlib.import_module("repro.api.build")
        except Exception:  # pragma: no cover - covered by the import check
            return
        declared = set(spec_mod.PIMPHONY_PRESETS)
        wired = set(build_mod._PIMPHONY_FACTORIES)
        if declared == wired:
            return
        line = 1
        for node in ast.walk(spec_module.tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "PIMPHONY_PRESETS"
                for target in node.targets
            ):
                line = node.lineno
                break
        missing = sorted(declared - wired)
        extra = sorted(wired - declared)
        yield anchored(
            "PIMPHONY_PRESETS and build._PIMPHONY_FACTORIES disagree "
            f"(declared-but-unwired: {missing or 'none'}, "
            f"wired-but-undeclared: {extra or 'none'})",
            line,
        )
