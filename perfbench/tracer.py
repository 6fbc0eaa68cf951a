"""Outside-in span tracer for the benchmark's traced run.

The tracer never edits the program.  It replaces a callable with a timing
wrapper at every name a caller looks it up by -- a class attribute for
methods, and every module global bound to the same function object for
functions, since ``from module import f`` copies the binding into the
importing module.  :meth:`Patcher.restore` puts the originals back.

Spans are aggregated in memory per ``(name, parent)``: call count, total
(inclusive) time, self time (total minus the time of traced child spans)
and the number of calls that raised.  Per-call durations are kept only for
the span names given in ``keep_durations``, where a percentile is reported.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from types import ModuleType
from typing import Any

#: Called after a traced call returns: ``observe(args, kwargs, result)``.
Observer = Callable[[tuple[Any, ...], dict[str, Any], Any], None]


@dataclass
class SpanStats:
    """Aggregate of one span name under one parent (or summed over parents)."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0


class Tracer:
    """Aggregates nested span timings of wrapped callables."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep_durations: Iterable[str] = (),
    ) -> None:
        self.clock = clock
        self.stats: dict[tuple[str, str | None], SpanStats] = {}
        self.durations: dict[str, list[float]] = {name: [] for name in keep_durations}
        self._stack: list[list[Any]] = []

    def wrap(
        self, name: str, fn: Callable[..., Any], observe: Observer | None = None
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        stack = self._stack
        clock = self.clock
        stats = self.stats
        durations = self.durations.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]  # [span name, time covered by child spans]
            stack.append(frame)
            failed = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                key = (name, parent[0] if parent is not None else None)
                record = stats.get(key)
                if record is None:
                    record = stats[key] = SpanStats()
                record.calls += 1
                record.total_s += elapsed
                record.self_s += elapsed - frame[1]
                if failed:
                    record.failed += 1
                if durations is not None:
                    durations.append(elapsed)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def summary(self, name: str) -> SpanStats:
        """``name`` summed over all parents.

        ``total_s`` skips calls made directly under a span of the same name,
        so recursion (or an override calling its base) is not counted twice.
        """
        out = SpanStats()
        for (span, parent), record in self.stats.items():
            if span != name:
                continue
            out.calls += record.calls
            out.self_s += record.self_s
            out.failed += record.failed
            if parent != name:
                out.total_s += record.total_s
        return out

    def calls_under(self, name: str, parent: str | None) -> int:
        """Calls of ``name`` made directly under a ``parent`` span."""
        record = self.stats.get((name, parent))
        return record.calls if record is not None else 0

    def entry_time(self, names: Iterable[str]) -> float:
        """Inclusive time of spans in ``names`` entered from outside the group."""
        group = set(names)
        return sum(
            record.total_s
            for (span, parent), record in self.stats.items()
            if span in group and parent not in group
        )

    def rows(self) -> list[dict[str, Any]]:
        """The span table, one row per ``(name, parent)``, for storing."""
        return [
            {
                "span": span,
                "parent": parent,
                "calls": record.calls,
                "total_s": record.total_s,
                "self_s": record.self_s,
                "failed": record.failed,
            }
            for (span, parent), record in sorted(
                self.stats.items(), key=lambda item: (item[0][0], item[0][1] or "")
            )
        ]


class Patcher:
    """Installs traced wrappers and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(
        self, cls: type, attr: str, name: str, observe: Observer | None = None
    ) -> None:
        """Trace ``cls.attr`` (plain, static or class method) as ``name``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped: Any = type(raw)(self.tracer.wrap(name, raw.__func__, observe))
        else:
            wrapped = self.tracer.wrap(name, raw, observe)
        self._set(cls, attr, wrapped)

    def function(
        self,
        fn: Callable[..., Any],
        modules: Iterable[ModuleType],
        name: str,
        observe: Observer | None = None,
    ) -> int:
        """Trace ``fn`` at every global of ``modules`` bound to it; returns the count."""
        wrapped = self.tracer.wrap(name, fn, observe)
        bound = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)
                    bound += 1
        return bound

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
