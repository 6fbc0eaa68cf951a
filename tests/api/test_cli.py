"""python -m repro CLI: run / validate / list, --set and --sweep."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_DIR = REPO_ROOT / "examples" / "specs"
SMALL_SPEC = {
    "name": "cli-test",
    "trace": {"source": "synthetic", "num_requests": 4, "output_tokens": 8},
    "step_stride": 8,
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SMALL_SPEC))
    return str(path)


class TestRun:
    def test_run_json_output(self, spec_file, capsys):
        assert main(["run", spec_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "cli-test"
        assert payload["metrics"]["requests_served"] == 4

    def test_run_table_output(self, spec_file, capsys):
        assert main(["run", spec_file]) == 0
        out = capsys.readouterr().out
        assert "tokens/s" in out
        assert "cli-test" in out

    def test_set_overrides(self, spec_file, capsys):
        assert (
            main(
                [
                    "run",
                    spec_file,
                    "--set",
                    "trace.num_requests=6",
                    "--set",
                    "name=renamed",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["name"] == "renamed"
        assert payload["metrics"]["requests_served"] == 6

    def test_sweep_cartesian(self, spec_file, capsys):
        assert (
            main(
                [
                    "run",
                    spec_file,
                    "--sweep",
                    "system.pimphony=baseline,full",
                    "--sweep",
                    "trace.num_requests=4,8",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["runs"]) == 4
        overrides = [run["overrides"] for run in payload["runs"]]
        assert {"system.pimphony": "baseline", "trace.num_requests": 4} in overrides
        assert {"system.pimphony": "full", "trace.num_requests": 8} in overrides

    def test_output_file(self, spec_file, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["run", spec_file, "--output", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["metrics"]["requests_served"] == 4

    def test_invalid_registry_key_exits_2(self, spec_file, capsys):
        code = main(["run", spec_file, "--set", "system.kind=warp-drive"])
        assert code == 2
        assert "warp-drive" in capsys.readouterr().err

    def test_bad_assignment_rejected(self, spec_file):
        with pytest.raises(SystemExit):
            main(["run", spec_file, "--set", "no-equals-sign"])

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code = main(["run", str(broken)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_override_path_exits_2(self, spec_file, capsys):
        code = main(["run", spec_file, "--set", "a..b=1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestValidate:
    def test_valid_spec(self, spec_file, capsys):
        assert main(["validate", spec_file]) == 0
        assert "ok: cli-test" in capsys.readouterr().out

    def test_invalid_field_exits_2(self, spec_file, capsys):
        code = main(["validate", spec_file, "--set", "trace.num_requests=0"])
        assert code == 2
        assert "trace.num_requests" in capsys.readouterr().err


class TestList:
    def test_list_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for section in ("systems:", "admission:", "routing:", "prefill:", "traces:",
                        "models:", "datasets:"):
            assert section in out
        assert "pim-only" in out

    def test_list_one_section(self, capsys):
        assert main(["list", "systems"]) == 0
        out = capsys.readouterr().out
        assert "xpu-pim" in out
        assert "datasets:" not in out


class TestExampleSpecs:
    """Every checked-in spec file parses, validates and round-trips."""

    @pytest.mark.parametrize(
        "spec_path", sorted(SPEC_DIR.glob("*.json")), ids=lambda p: p.stem
    )
    def test_spec_file_validates_and_round_trips(self, spec_path):
        from repro.api.spec import ExperimentSpec

        data = json.loads(spec_path.read_text())
        spec = ExperimentSpec.from_dict(data).validate()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_specs_cover_required_scenarios(self):
        kinds = set()
        replicas = set()
        for path in SPEC_DIR.glob("*.json"):
            data = json.loads(path.read_text())
            kinds.add(data.get("system", {}).get("kind", "pim-only"))
            router = data.get("router")
            replicas.add(router["replicas"] if router else 1)
        assert {"pim-only", "xpu-only", "xpu-pim"} <= kinds
        assert 4 in replicas


def test_python_dash_m_repro_entry_point(tmp_path):
    """The module is executable as `python -m repro` from a clean process."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMALL_SPEC))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", str(spec), "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["metrics"]["requests_served"] == 4
