"""How fast the host runs Python right now, measured with a fixed reference loop.

On a shared host, neighbours slow a core by up to half, in phases that last
from seconds to minutes: as much as the simulator changes between commits.
``run.py`` therefore pins itself and its children to one CPU
(:func:`pin_to_one_cpu`), times :func:`reference_loop` -- fixed code that
never changes with the program -- before the first run and after every
run, and scales each run's host times by the speed measured around it
(:func:`host_speed`).  On a host where one reference loop takes
:data:`REFERENCE_S` seconds the scaled and the raw times agree.

The loop does the kind of work the simulator's host time goes to: a heap of
timed events, dict and attribute bookkeeping on small objects, float
arithmetic and a sort for a percentile.
"""

from __future__ import annotations

import heapq
import math
import os
import statistics
import time

#: Seconds one :func:`reference_loop` takes on the reference host: a 2-core
#: Intel Xeon VM running CPython 3, with its neighbours quiet.
REFERENCE_S = 0.08

#: Reference loops timed before the first run and after each run; the
#: median is kept.
REPEATS = 4

EVENTS = 80_000
KEYS = 2_048


class _Slot:
    """One small bookkeeping object, like a request record."""

    __slots__ = ("busy_s", "due_s", "key", "tokens")

    def __init__(self, key: int) -> None:
        self.key = key
        self.tokens = 0
        self.due_s = 0.0
        self.busy_s = 0.0


def reference_loop(events: int = EVENTS) -> float:
    """Fixed, deterministic host work; returns a checksum of what it computed."""
    slots = {key: _Slot(key) for key in range(KEYS)}
    heap: list[tuple[float, int]] = [(float(key), key) for key in range(KEYS)]
    heapq.heapify(heap)
    finished: list[float] = []
    state = 12_345
    for _ in range(events):
        due_s, key = heapq.heappop(heap)
        slot = slots[key]
        slot.tokens += 1
        state = (state * 1_103_515_245 + 12_345) & 0x7FFFFFFF
        step_s = 1e-3 + (state % 1_000) * 1e-6
        slot.busy_s += step_s
        slot.due_s = due_s + step_s * math.sqrt(1 + slot.tokens % 7)
        if slot.tokens % 64 == 0:
            finished.append(slot.busy_s)
        heapq.heappush(heap, (slot.due_s, key))
    finished.sort()
    p99 = finished[int(0.99 * (len(finished) - 1))] if finished else 0.0
    return p99 + sum(slot.busy_s for slot in slots.values())


def reference_s(repeats: int = REPEATS) -> float:
    """Median host seconds of ``repeats`` reference loops, timed now."""
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


def host_speed(before_s: float, after_s: float) -> float:
    """Host speed around one run: 1.0 on the reference host, below 1 when slower.

    ``before_s`` and ``after_s`` are :func:`reference_s` just before and just
    after the run; their geometric mean stands for the speed during it.
    Multiply a run's host seconds by this (divide a rate by it) to get the
    reference host's seconds.
    """
    if before_s <= 0 or after_s <= 0:
        raise ValueError(f"reference times must be positive, got {before_s}, {after_s}")
    return REFERENCE_S / math.sqrt(before_s * after_s)


def pin_to_one_cpu() -> int | None:
    """Pin this process, and every child it spawns later, to one CPU.

    Neighbours slow each core of a shared host by a different amount, so the
    reference loop follows the runs only when both use the same core.
    Returns the CPU, or None where the platform cannot pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
