"""A run loads only what its spec builds.

Built-in registry entries are ``"module:attr"`` paths imported on first
lookup, and the subpackage ``__init__`` modules re-export nothing, so the
compiler, the command schedulers and the functional PIM model stay
unloaded by every shipped serving spec.  Each check runs in a fresh
interpreter: the test process itself has imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import registry

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

_BUILD_PROBE = """
import json, sys
from repro.api.build import build
from repro.api.spec import ExperimentSpec
build(ExperimentSpec.from_json(open(sys.argv[1]).read()))
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro."))))
"""

_NAMES_PROBE = """
import json, sys
from repro.api.registry import SYSTEMS
before = set(sys.modules)
names = SYSTEMS.names()
print(json.dumps([names, sorted(set(sys.modules) - before), sorted(sys.modules)]))
"""

#: The modules defining the built-in systems.
SYSTEM_MODULES = (
    "repro.system.xpu",
    "repro.system.pim_only",
    "repro.system.xpu_pim",
    "repro.baselines.gpu",
)

#: Modules no serving spec calls into.
NEVER_LOADED = (
    "repro.pim.functional",
    "repro.pim.scheduling",
    "repro.core.dispatcher",
    "repro.core.dpa",
    "repro.memory.va2pa",
)

#: Modules only PIM systems need.
PIM_ONLY_MODULES = (
    "repro.pim.kernels",
    "repro.system.layers",
    "repro.system.pim_only",
    "repro.system.xpu_pim",
)


def _probe(code: str, *args: str) -> object:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    ("spec", "also_unloaded"),
    [
        ("xpu_only_qmsum.json", PIM_ONLY_MODULES),
        ("xpu_pim_long_context.json", ()),
        ("diurnal_autoscale.json", ()),
    ],
)
def test_build_loads_only_what_the_spec_names(spec, also_unloaded):
    loaded = set(_probe(_BUILD_PROBE, str(ROOT / "examples" / "specs" / spec)))
    compiler = sorted(name for name in loaded if name.startswith("repro.compiler"))
    assert compiler == []
    assert sorted(loaded.intersection(NEVER_LOADED + also_unloaded)) == []


def test_listing_systems_imports_no_system_module():
    names, imported_by_names, loaded = _probe(_NAMES_PROBE)
    assert names == ["gpu", "pim-only", "xpu-only", "xpu-pim"]
    assert imported_by_names == []
    assert sorted(set(loaded).intersection(SYSTEM_MODULES)) == []


def test_every_builtin_entry_resolves_to_a_callable():
    registries = [
        value for value in vars(registry).values() if isinstance(value, registry.Registry)
    ]
    assert len(registries) == 7
    for table in registries:
        assert table.names()
        for name in table.names():
            assert callable(table.get(name)), f"{table.kind} {name!r}"


def test_register_refuses_to_shadow_an_unloaded_builtin():
    table = registry.Registry("widget", {"fcfs": "repro.serving.admission:FCFSAdmission"})
    with pytest.raises(ValueError, match="already registered"):
        table.register("fcfs", lambda: None)
    assert table._entries == {}
    replacement = table.register("fcfs", lambda: "mine", overwrite=True)
    assert table.get("fcfs") is replacement
    assert len(table) == 1 and list(table) == ["fcfs"]
