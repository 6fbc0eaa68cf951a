"""Dead-module guard: every ``repro`` module has a user outside the tests.

A module is *used* when a file other than a package ``__init__`` imports
it, or imports a name that a package ``__init__`` re-exports from it.  The
files searched are the non-``__init__`` modules of ``src/repro``, the
figure benchmarks, the examples and perfbench; test directories are not.
A package ``__init__`` re-export alone does not keep a module alive: a
module only its ``__init__`` and its tests import is dead code and should
be deleted with its tests.  Importing by dotted-path string (perfbench's
``importlib.import_module("repro.system.xpu")``) counts as a use, and so
does a name in a package's PEP 562 ``_EXPORTS`` table.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONSUMER_DIRS = ("src/repro", "benchmarks", "examples", "perfbench")

#: Modules that stay although nothing outside the tests imports them.
ALLOWED = {
    "repro.pim.functional": "numerical oracle for lowering, TCP and DCS in the tests",
    "repro.__main__": "entry point of `python -m repro`",
    "repro.devtools.lint.__main__": "entry point of `python -m repro.devtools.lint`",
    "repro.devtools.lint.rules.clock": "rule loaded by the rules/__init__ registry",
    "repro.devtools.lint.rules.determinism": "rule loaded by the rules/__init__ registry",
    "repro.devtools.lint.rules.float_equality": "rule loaded by the rules/__init__ registry",
    "repro.devtools.lint.rules.spec_roundtrip": "rule loaded by the rules/__init__ registry",
    "repro.devtools.lint.rules.units": "rule loaded by the rules/__init__ registry",
}


def _modules(root: Path) -> dict[str, Path]:
    modules = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(root / "src").with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def _reexports(init: Path, package: str) -> dict[str, str]:
    """Name -> module a package ``__init__`` takes it from."""
    names: dict[str, str] = {}
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = node.module
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            for key, value in zip(node.value.keys, node.value.values, strict=True):
                if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                    names[key.value] = f"{package}.{value.value}"
    return names


def _used_modules(root: Path, modules: dict[str, Path]) -> set[str]:
    packages = {name for name, path in modules.items() if path.name == "__init__.py"}
    exports = {name: _reexports(modules[name], name) for name in packages}

    def resolve(module: str, name: str) -> set[str]:
        """Modules that ``from module import name`` reaches."""
        if module not in packages:
            return {module}
        if f"{module}.{name}" in modules:
            return {module, f"{module}.{name}"}
        source = exports[module].get(name)
        return {module} if source is None else {module} | resolve(source, name)

    used: set[str] = set()
    for directory in CONSUMER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path.name == "__init__.py" or "tests" in path.relative_to(root).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    used.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                    for alias in node.names:
                        used |= resolve(node.module, alias.name)
                elif isinstance(node, ast.Constant) and node.value in modules:
                    used.add(node.value)
    return used


def dead_modules(root: Path = ROOT) -> list[str]:
    """Modules with no user outside the tests, package ``__init__``s excluded."""
    modules = _modules(root)
    used = _used_modules(root, modules)
    return [
        name
        for name, path in modules.items()
        if path.name != "__init__.py" and name not in used and name not in ALLOWED
    ]


def test_no_module_is_used_only_by_its_package_init_and_tests():
    assert dead_modules() == []


def test_allowlist_holds_only_existing_unused_modules():
    modules = _modules(ROOT)
    used = _used_modules(ROOT, modules)
    for name in ALLOWED:
        assert name in modules and name not in used, name


def test_guard_sees_reexport_only_modules(tmp_path):
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text(
        "from repro.pkg.alive import used\nfrom repro.pkg.dead import unused\n"
    )
    (package / "alive.py").write_text("used = 1\n")
    (package / "dead.py").write_text("unused = 2\n")
    for directory in CONSUMER_DIRS[1:]:
        (tmp_path / directory).mkdir()
    (tmp_path / "examples" / "user.py").write_text("from repro.pkg import used\n")
    assert dead_modules(tmp_path) == ["repro.pkg.dead"]
