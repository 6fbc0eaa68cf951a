"""The engine advances a decoding batch with one ``grow_many`` per evaluation.

Counting shims on the allocator and tracker classes pin which path each
evaluation takes: a single evaluation grows the whole batch with one
``grow_many`` call and credits its tokens with one
``LifecycleTracker.on_batch_tokens`` call, never ``on_tokens``; only when ``grow_many`` raises ``CapacityExceeded`` does the engine fall
back to growing request by request and evicting victims.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, run
from repro.api.spec import apply_override
from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.lifecycle import CapacityExceeded
from repro.memory.static_alloc import StaticAllocator
from repro.serving.lifecycle import LifecycleTracker
from repro.system.pim_only import PIMOnlySystem
from repro.system.xpu import XPUOnlySystem

SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"
MODE_KEYS = ("spec", "spec_hash", "engine_mode")


@pytest.fixture
def calls(monkeypatch):
    """Count calls (and ``CapacityExceeded`` raises) of the engine's hooks."""
    counts: Counter[str] = Counter()

    def count(cls, name):
        method = getattr(cls, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            try:
                return method(*args, **kwargs)
            except CapacityExceeded:
                counts[f"{name}.failed"] += 1
                raise

        monkeypatch.setattr(cls, name, counted)

    for cls in (ChunkedAllocator, StaticAllocator):
        count(cls, "grow")
        count(cls, "grow_many")
    count(LifecycleTracker, "on_tokens")
    count(LifecycleTracker, "on_batch_tokens")
    count(XPUOnlySystem, "decode_step")
    count(PIMOnlySystem, "decode_step")
    return counts


def report(name: str, mode: str) -> dict:
    data = json.loads((SPEC_DIR / f"{name}.json").read_text())
    apply_override(data, "engine.mode", mode)
    result = run(ExperimentSpec.from_dict(data)).to_dict()
    for key in MODE_KEYS:
        result.pop(key)
    return result


def test_scalar_evaluations_grow_the_batch_in_one_call(calls):
    """Legacy contract: no grow can fail, so nothing is grown one by one."""
    report("xpu_only_qmsum", "scalar")
    assert calls["decode_step"] > 0
    assert calls["grow_many"] == calls["decode_step"]
    assert calls["grow"] == 0
    assert calls["on_tokens"] == 0
    assert calls["on_batch_tokens"] == calls["decode_step"]


def test_capacity_pressure_falls_back_to_evicting_grows(calls):
    scalar = report("preemption_evict_lru", "scalar")
    assert calls["grow_many.failed"] > 0
    assert calls["grow.failed"] > 0  # the per-request fallback met the same pressure
    assert calls["on_tokens"] > 0
    assert scalar["metrics"]["preemptions"] == 10
    assert report("preemption_evict_lru", "fast") == scalar
