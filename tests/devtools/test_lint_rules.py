"""Tests for the ``repro-lint`` AST invariant checker.

Each rule is exercised with fixture snippets in both the firing and the
non-firing direction, suppression comments are checked at line and file
scope, and the shipped ``src/repro`` tree is asserted clean so the CI
gate (``repro-lint`` exiting 0) is pinned by the suite itself.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.api.spec import ExperimentSpec
from repro.devtools.lint.cli import main
from repro.devtools.lint.core import format_json, format_text, run_lint
from repro.devtools.lint.rules import all_rules
from repro.devtools.lint.rules.spec_roundtrip import SpecRoundTripRule

REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_source(tmp_path, source, name="module.py", select=None, ignore=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([path], all_rules(), select=select, ignore=ignore, root=tmp_path)


def codes(findings):
    return sorted({finding.code for finding in findings})


class TestDeterminismRule:
    def test_flags_random_import(self, tmp_path):
        findings = lint_source(tmp_path, "import random\n")
        assert codes(findings) == ["RPR001"]
        assert "global-state RNG" in findings[0].message

    def test_flags_secrets_import(self, tmp_path):
        findings = lint_source(tmp_path, "import secrets\n")
        assert codes(findings) == ["RPR001"]

    def test_flags_wall_clock_reads(self, tmp_path):
        source = """
        import time

        def stamp():
            return time.perf_counter()
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR001"]
        assert "wall-clock" in findings[0].message

    def test_flags_wall_clock_read_through_from_import(self, tmp_path):
        source = """
        from time import monotonic

        def stamp():
            return monotonic()
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR001"]

    def test_flags_datetime_now(self, tmp_path):
        source = """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR001"]

    def test_flags_numpy_global_rng(self, tmp_path):
        source = """
        import numpy as np

        def draw(n):
            return np.random.rand(n)
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR001"]
        assert "global RNG state" in findings[0].message

    def test_flags_unseeded_default_rng(self, tmp_path):
        source = """
        import numpy as np

        def draw():
            return np.random.default_rng()
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR001"]
        assert "without a seed" in findings[0].message

    def test_flags_os_urandom_and_uuid4(self, tmp_path):
        source = """
        import os
        import uuid

        def token():
            return os.urandom(8), uuid.uuid4()
        """
        findings = lint_source(tmp_path, source)
        assert [finding.code for finding in findings] == ["RPR001", "RPR001"]

    def test_allows_seeded_generator_flow(self, tmp_path):
        source = """
        import numpy as np
        from numpy.random import SeedSequence, default_rng

        def build(seed: int) -> np.random.Generator:
            children = SeedSequence(seed).spawn(2)
            return default_rng(children[0])
        """
        assert lint_source(tmp_path, source) == []

    def test_allows_plain_time_import_without_reads(self, tmp_path):
        source = """
        import time

        SLEEP = time.sleep
        """
        assert lint_source(tmp_path, source) == []


class TestFloatEqualityRule:
    def test_flags_suffixed_name_equality(self, tmp_path):
        source = """
        def same(arrival_s, deadline_s):
            return arrival_s == deadline_s
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR002"]
        assert "math.isclose" in findings[0].message

    def test_flags_float_literal_inequality(self, tmp_path):
        findings = lint_source(tmp_path, "DONE = 1.5\nFLAG = DONE != 1.5\n")
        assert codes(findings) == ["RPR002"]

    def test_flags_division_result_equality(self, tmp_path):
        source = """
        def ratio_is(total, parts, expected):
            return total / parts == expected
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR002"]

    def test_flags_float_cast_equality(self, tmp_path):
        source = """
        def check(x, y):
            return float(x) == y
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR002"]

    def test_flags_chained_comparison(self, tmp_path):
        source = """
        def chained(a, b_s, c):
            return a == b_s == c
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR002"]

    def test_allows_int_and_string_equality(self, tmp_path):
        source = """
        def classify(count, name):
            return count == 3 and name == "poisson"
        """
        assert lint_source(tmp_path, source) == []

    def test_allows_ordering_comparisons(self, tmp_path):
        source = """
        def late(arrival_s, deadline_s):
            return arrival_s <= deadline_s
        """
        assert lint_source(tmp_path, source) == []


class TestUnitSuffixRule:
    def test_flags_bare_quantity_assignment(self, tmp_path):
        findings = lint_source(tmp_path, "latency = 3.0\n")
        assert codes(findings) == ["RPR003"]
        assert "latency" in findings[0].message

    def test_flags_bare_function_parameter(self, tmp_path):
        source = """
        def wait(delay):
            return delay
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR003"]

    def test_flags_bare_loop_target(self, tmp_path):
        source = """
        def total(intervals):
            acc = 0.0
            for interval in intervals:
                acc += interval
            return acc
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR003"]

    def test_flags_scalar_annotated_field(self, tmp_path):
        source = """
        from dataclasses import dataclass

        @dataclass
        class Step:
            timeout: float = 0.0
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR003"]

    def test_allows_unit_suffixed_names(self, tmp_path):
        source = """
        def wait(delay_s, rate_rps):
            latency_ms = delay_s * 1000.0
            return latency_ms / max(rate_rps, 1.0)
        """
        assert lint_source(tmp_path, source) == []

    def test_allows_structured_annotation(self, tmp_path):
        source = """
        from dataclasses import dataclass

        class LatencyStats:
            pass

        @dataclass
        class Report:
            latency: LatencyStats = None
        """
        assert lint_source(tmp_path, source) == []

    def test_allows_cycles_suffix_for_time_stems(self, tmp_path):
        assert lint_source(tmp_path, "mac_latency_cycles = 4\n") == []


class TestClockDisciplineRule:
    def test_flags_clock_write_in_helper(self, tmp_path):
        source = """
        class Engine:
            def dispatch(self, when):
                self.clock = when
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR005"]
        assert "dispatch" in findings[0].message

    def test_flags_augmented_now_write(self, tmp_path):
        source = """
        class Engine:
            def helper(self, dt):
                self.now += dt
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR005"]

    def test_allows_writes_in_designated_methods(self, tmp_path):
        source = """
        class Engine:
            def __init__(self):
                self.clock = 0.0

            def reset(self):
                self.clock = 0.0

            def advance_to(self, when):
                self.clock = when

            def run(self):
                self.clock += 1.0
        """
        assert lint_source(tmp_path, source) == []

    def test_allows_bare_annotation_declaration(self, tmp_path):
        source = """
        from dataclasses import dataclass

        @dataclass
        class Snapshot:
            now: float
        """
        assert lint_source(tmp_path, source) == []


class TestSuppressions:
    def test_line_suppression_silences_named_code(self, tmp_path):
        source = """
        def same(a_s, b_s):
            return a_s == b_s  # repro-lint: disable=RPR002 -- parity pin wants exact bits
        """
        assert lint_source(tmp_path, source) == []

    def test_line_suppression_is_code_specific(self, tmp_path):
        source = """
        def same(a_s, b_s):
            return a_s == b_s  # repro-lint: disable=RPR001 -- wrong code
        """
        assert codes(lint_source(tmp_path, source)) == ["RPR002"]

    def test_disable_all_on_line(self, tmp_path):
        source = """
        def same(a_s, b_s):
            return a_s == b_s  # repro-lint: disable=all -- fixture
        """
        assert lint_source(tmp_path, source) == []

    def test_file_level_suppression(self, tmp_path):
        source = """
        # repro-lint: disable-file=RPR002 -- exact-bit parity module
        def same(a_s, b_s):
            return a_s == b_s

        def also(c_s, d_s):
            return c_s != d_s
        """
        assert lint_source(tmp_path, source) == []

    def test_malformed_suppression_reports_internal_code(self, tmp_path):
        source = """
        def same(a_s, b_s):
            return a_s == b_s  # repro-lint: disable=bogus
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR000", "RPR002"]

    def test_internal_code_is_not_suppressible(self, tmp_path):
        source = """
        # repro-lint: disable-file=all
        x = (  # repro-lint: disable=nonsense
            1
        )
        """
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR000"]

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        source = '''
        """Docs describing # repro-lint: disable=RPR002 comments."""

        def same(a_s, b_s):
            return a_s == b_s
        '''
        findings = lint_source(tmp_path, source)
        assert codes(findings) == ["RPR002"]

    def test_syntax_error_reports_internal_finding(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert codes(findings) == ["RPR000"]
        assert "syntax error" in findings[0].message


class TestSelection:
    def test_select_runs_only_named_rules(self, tmp_path):
        source = """
        import random

        latency = 3.0
        """
        findings = lint_source(tmp_path, source, select={"RPR003"})
        assert codes(findings) == ["RPR003"]

    def test_ignore_skips_named_rules(self, tmp_path):
        source = """
        import random

        latency = 3.0
        """
        findings = lint_source(tmp_path, source, ignore={"RPR003"})
        assert codes(findings) == ["RPR001"]


class TestSpecRoundTripRule:
    def test_skips_trees_without_the_spec_module(self, tmp_path):
        assert lint_source(tmp_path, "x = 1\n", select={"RPR004"}) == []

    def test_real_spec_module_passes(self):
        findings = run_lint(
            [REPO_ROOT / "src" / "repro" / "api" / "spec.py"],
            [SpecRoundTripRule()],
            root=REPO_ROOT,
        )
        assert findings == []

    def test_detects_field_dropped_from_to_dict(self, monkeypatch):
        original = ExperimentSpec.to_dict

        def dropping(self):
            data = original(self)
            data.pop("seed", None)
            return data

        monkeypatch.setattr(ExperimentSpec, "to_dict", dropping)
        findings = run_lint(
            [REPO_ROOT / "src" / "repro" / "api" / "spec.py"],
            [SpecRoundTripRule()],
            root=REPO_ROOT,
        )
        assert any(
            "ExperimentSpec.seed" in finding.message and "round-trip" in finding.message
            for finding in findings
        )

    def test_detects_preset_vocabulary_drift(self, monkeypatch):
        import repro.api.build as build_mod

        factories = dict(build_mod._PIMPHONY_FACTORIES)
        factories["lint-phantom"] = next(iter(factories.values()))
        monkeypatch.setattr(build_mod, "_PIMPHONY_FACTORIES", factories)
        findings = run_lint(
            [REPO_ROOT / "src" / "repro" / "api" / "spec.py"],
            [SpecRoundTripRule()],
            root=REPO_ROOT,
        )
        assert any("lint-phantom" in finding.message for finding in findings)


class TestShippedTreeIsClean:
    def test_src_repro_lints_clean(self):
        findings = run_lint([REPO_ROOT / "src" / "repro"], all_rules(), root=REPO_ROOT)
        assert findings == [], format_text(findings)


class TestOutputFormats:
    def test_text_format_renders_location_and_summary(self, tmp_path):
        findings = lint_source(tmp_path, "latency = 3.0\n")
        text = format_text(findings)
        assert "module.py:1:1: RPR003 [unit-suffixes]" in text
        assert text.endswith("repro-lint: 1 finding")

    def test_json_format_is_machine_readable(self, tmp_path):
        findings = lint_source(tmp_path, "latency = 3.0\n")
        payload = json.loads(format_json(findings))
        assert payload["version"] == 1
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "RPR003"
        assert payload["findings"][0]["line"] == 1

    def test_json_format_empty(self):
        payload = json.loads(format_json([]))
        assert payload == {"version": 1, "count": 0, "findings": []}


class TestCLI:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("arrival_s = 1.0\n", encoding="utf-8")
        assert main([str(path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_with_findings(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("latency = 3.0\n", encoding="utf-8")
        assert main([str(path)]) == 1
        assert "RPR003" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("import random\n", encoding="utf-8")
        assert main([str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "RPR001"

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_code_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main([str(path), "--select", "RPR999"])
        assert excinfo.value.code == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005"):
            assert code in out
