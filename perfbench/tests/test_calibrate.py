"""The reference loop, the host speed it gives, and pinning to one CPU."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from perfbench.calibrate import REFERENCE_S, host_speed, reference_loop, reference_s
from perfbench.child import ROOT


def test_reference_loop_is_deterministic() -> None:
    assert reference_loop(5_000) == reference_loop(5_000)
    assert reference_loop(5_000) != reference_loop(6_000)


def test_reference_s_times_the_loop() -> None:
    assert reference_s(repeats=1) > 0


def test_host_speed_scales_times_to_the_reference_host() -> None:
    assert host_speed(REFERENCE_S, REFERENCE_S) == pytest.approx(1.0)
    assert host_speed(2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.5)
    # The geometric mean of the two timings stands for the run between them.
    assert host_speed(REFERENCE_S, 4 * REFERENCE_S) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="positive"):
        host_speed(0.0, REFERENCE_S)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_pin_to_one_cpu_pins_the_process_and_its_children() -> None:
    script = (
        "import os, subprocess, sys\n"
        "from perfbench.calibrate import pin_to_one_cpu\n"
        "cpu = pin_to_one_cpu()\n"
        "child = subprocess.run([sys.executable, '-c', "
        "'import os; print(sorted(os.sched_getaffinity(0)))'], "
        "capture_output=True, text=True, check=True)\n"
        "print(cpu, sorted(os.sched_getaffinity(0)), child.stdout.strip())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip().split(maxsplit=1)
    cpu = int(out[0])
    assert cpu == max(os.sched_getaffinity(0))
    assert out[1] == f"[{cpu}] [{cpu}]"
