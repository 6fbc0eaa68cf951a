"""RPR005: clock state is written only inside designated advance methods.

The serving engine advances one simulation clock, and every latency
metric in a report is an arithmetic consequence of those advances.  A
clock write hidden in a helper (``self.now = ...`` inside an admission
hook, say) silently forks simulated time from the engine's event
ordering -- the exact class of bug the scalar/fast parity pins exist to
catch, except parity only sees it when a pinned example happens to hit
the path.  This rule makes the discipline structural: names that denote
clock state (``clock``, ``now``, ``sim_time``, ...) may only be assigned
inside ``run``/``reset``/``__init__`` or a method whose name starts with
``advance``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.lint.core import Finding, LintModule, Rule

#: Names that denote simulation-clock state wherever they appear.
CLOCK_NAMES = {"clock", "_clock", "now", "_now", "sim_time", "current_time"}

#: Function names allowed to write clock state.
ALLOWED_FUNCTIONS = {"run", "reset", "__init__"}
ALLOWED_PREFIX = "advance"


def _is_allowed(function_name: str | None) -> bool:
    if function_name is None:
        return False
    return function_name in ALLOWED_FUNCTIONS or function_name.startswith(ALLOWED_PREFIX)


class _ClockWriteVisitor(ast.NodeVisitor):
    """Collect clock-state writes with their enclosing function name."""

    def __init__(self) -> None:
        self.writes: list[tuple[ast.AST, str, str | None]] = []
        self._stack: list[str] = []

    def _function(self) -> str | None:
        return self._stack[-1] if self._stack else None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def _target(self, node: ast.expr) -> None:
        if isinstance(node, ast.Name) and node.id in CLOCK_NAMES:
            self.writes.append((node, node.id, self._function()))
        elif isinstance(node, ast.Attribute) and node.attr in CLOCK_NAMES:
            self.writes.append((node, node.attr, self._function()))
        elif isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                self._target(element)
        elif isinstance(node, ast.Starred):
            self._target(node.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        # Bare class/dataclass declarations (``now: float``) declare the
        # slot; only value-carrying assignments mutate state.
        if node.value is not None:
            self._target(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._target(node.target)
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._target(node.target)
        self.generic_visit(node)


class ClockDisciplineRule(Rule):
    code = "RPR005"
    name = "clock-discipline"
    description = (
        "Clock/now state may only be assigned inside run/reset/__init__ "
        "or advance* methods."
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        visitor = _ClockWriteVisitor()
        visitor.visit(module.tree)
        for node, name, function in visitor.writes:
            if _is_allowed(function):
                continue
            where = f"function {function!r}" if function else "module level"
            yield module.finding(
                self,
                node,
                f"clock state {name!r} assigned at {where}; simulated time "
                "may only advance inside run/reset/__init__/advance* methods",
            )
