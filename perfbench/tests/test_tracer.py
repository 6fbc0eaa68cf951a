"""The outside-in tracer: self-time arithmetic, failures and patching."""

from __future__ import annotations

from types import ModuleType

import pytest

from perfbench.tracer import Patcher, Tracer


class FakeClock:
    """A clock that only moves when a toy function says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_calls() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner() -> None:
        clock.advance(3.0)

    traced_inner = tracer.wrap("inner", inner)

    def outer() -> None:
        clock.advance(1.0)
        traced_inner()
        clock.advance(2.0)
        traced_inner()

    tracer.wrap("outer", outer)()

    top = tracer.stats[("outer", None)]
    assert (top.calls, top.total_s, top.self_s) == (1, 9.0, 3.0)
    child = tracer.stats[("inner", "outer")]
    assert (child.calls, child.total_s, child.self_s) == (2, 6.0, 6.0)
    assert tracer.calls_under("inner", "outer") == 2
    assert tracer.calls_under("inner", None) == 0


def test_self_times_sum_to_the_root_total() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(0.5))

    def middle() -> None:
        clock.advance(0.25)
        leaf()

    traced_middle = tracer.wrap("middle", middle)

    def root() -> None:
        traced_middle()
        leaf()
        clock.advance(1.0)

    tracer.wrap("root", root)()
    assert sum(record.self_s for record in tracer.stats.values()) == pytest.approx(2.25)
    assert tracer.summary("root").total_s == pytest.approx(2.25)
    assert tracer.summary("leaf").calls == 2
    assert tracer.summary("leaf").total_s == pytest.approx(1.0)


def test_recursion_counts_inclusive_time_once() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def countdown(n: int) -> None:
        clock.advance(1.0)
        if n:
            traced(n - 1)

    traced = tracer.wrap("countdown", countdown)
    traced(2)
    summary = tracer.summary("countdown")
    assert summary.calls == 3
    assert summary.total_s == 3.0
    assert summary.self_s == 3.0


def test_entry_time_counts_a_group_from_outside_only() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    estimate = tracer.wrap("estimate", lambda: clock.advance(2.0))

    def head() -> None:
        clock.advance(1.0)
        estimate()

    traced_head = tracer.wrap("head", head)

    def step() -> None:
        traced_head()
        estimate()
        clock.advance(4.0)

    tracer.wrap("step", step)()
    assert tracer.entry_time(["head", "estimate"]) == 5.0


def test_failed_calls_are_counted_and_reraised() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def grow(fail: bool) -> None:
        clock.advance(1.0)
        if fail:
            raise RuntimeError("out of chunks")

    traced = tracer.wrap("grow", grow)
    traced(False)
    with pytest.raises(RuntimeError, match="out of chunks"):
        traced(True)
    summary = tracer.summary("grow")
    assert (summary.calls, summary.failed, summary.total_s) == (2, 1, 2.0)
    assert tracer._stack == []


def test_durations_kept_only_where_asked() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep_durations=["step"])
    step = tracer.wrap("step", lambda seconds: clock.advance(seconds))
    other = tracer.wrap("other", lambda: clock.advance(1.0))
    step(1.0)
    step(3.0)
    other()
    assert tracer.durations == {"step": [1.0, 3.0]}


def test_observer_sees_arguments_and_result() -> None:
    seen = []

    def observe(args: tuple, kwargs: dict, result: int) -> None:
        seen.append((args, kwargs, result))

    tracer = Tracer(clock=FakeClock())
    traced = tracer.wrap("add", lambda a, b=0: a + b, observe)
    traced(1, b=2)
    assert seen == [((1,), {"b": 2}, 3)]


def test_patcher_reaches_every_from_import_binding() -> None:
    def kernel() -> str:
        return "cycles"

    home = ModuleType("home")
    home.kernel = kernel
    caller = ModuleType("caller")
    caller.kernel = kernel  # what `from home import kernel` leaves behind
    bystander = ModuleType("bystander")
    bystander.other = lambda: "untouched"

    tracer = Tracer(clock=FakeClock())
    patcher = Patcher(tracer)
    assert patcher.function(kernel, [home, caller, bystander], "kernels.kernel") == 2
    assert home.kernel is caller.kernel is not kernel
    assert caller.kernel() == "cycles"
    assert tracer.summary("kernels.kernel").calls == 1

    patcher.restore()
    assert home.kernel is kernel and caller.kernel is kernel


def test_patcher_wraps_plain_and_static_methods() -> None:
    class Report:
        def to_dict(self) -> dict[str, int]:
            return {"served": 1}

        @staticmethod
        def from_records(records: list[int]) -> int:
            return len(records)

    original_to_dict = Report.__dict__["to_dict"]
    original_from_records = Report.__dict__["from_records"]
    tracer = Tracer(clock=FakeClock())
    patcher = Patcher(tracer)
    patcher.method(Report, "to_dict", "report.to_dict")
    patcher.method(Report, "from_records", "report.latency_stats")

    assert Report().to_dict() == {"served": 1}
    assert Report.from_records([1, 2]) == 2
    assert tracer.summary("report.to_dict").calls == 1
    assert tracer.summary("report.latency_stats").calls == 1

    patcher.restore()
    assert Report.__dict__["to_dict"] is original_to_dict
    assert Report.__dict__["from_records"] is original_from_records
