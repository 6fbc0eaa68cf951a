"""One import surface: ``repro`` curates names, every other package re-exports nothing.

Each name is imported from the module that defines it.  ``repro/__init__.py``
is the one curated surface (``tests/test_public_api.py`` pins its names),
and ``repro/devtools/lint/rules/__init__.py`` defines the rule registry
(``all_rules``) rather than re-exporting names.  README's code blocks must
import through these same surfaces, so a doc naming a removed one fails
here.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Package ``__init__`` modules that may hold more than their docstring.
CURATED = (
    SRC / "repro" / "__init__.py",
    SRC / "repro" / "devtools" / "lint" / "rules" / "__init__.py",
)


def _is_docstring_only(path: Path) -> bool:
    body = ast.parse(path.read_text()).body
    return (
        len(body) == 1
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    )


def test_packages_hold_only_their_docstring():
    inits = sorted((SRC / "repro").rglob("__init__.py"))
    assert set(CURATED) <= set(inits)
    offenders = [
        str(path.relative_to(SRC))
        for path in inits
        if path not in CURATED and not _is_docstring_only(path)
    ]
    assert offenders == []


def test_submodule_import_binds_the_module():
    """``import repro.api.build as m`` is the module, not the ``build`` function."""
    code = (
        "import types\n"
        "import repro.api.build as m\n"
        "print(isinstance(m, types.ModuleType), callable(m.build))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=180
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def _readme_import_blocks() -> list[tuple[str, list[ast.stmt]]]:
    text = (ROOT / "README.md").read_text()
    blocks = []
    for match in re.finditer(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        imports = [
            node
            for node in ast.walk(ast.parse(match.group(1)))
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        if imports:
            line = text.count("\n", 0, match.start()) + 2
            blocks.append((f"README.md:{line}", imports))
    return blocks


README_IMPORT_BLOCKS = _readme_import_blocks()


def test_readme_shows_imports():
    assert README_IMPORT_BLOCKS


@pytest.mark.parametrize(
    "imports",
    [imports for _, imports in README_IMPORT_BLOCKS],
    ids=[where for where, _ in README_IMPORT_BLOCKS],
)
def test_readme_imports_resolve(imports):
    module = ast.Module(body=imports, type_ignores=[])
    exec(compile(module, "README.md", "exec"), {})  # noqa: S102 - the point of the test
