"""Backward-compatible facade over the event-driven serving engine.

The serving stack now lives in :mod:`repro.serving` -- admission policies,
the :class:`~repro.serving.engine.ServingEngine` event loop and per-request
lifecycle metrics.  This module keeps the
historical import surface (``StepResult``, ``DecodeSystem``,
``ServingResult``, ``simulate_serving``) working unchanged: on traces
without arrival timestamps (the only kind that existed before, every
request at time 0) whose requests fit the context window, the FCFS engine
reproduces the legacy synchronous loop's results exactly.  Traces carrying
timestamps -- e.g. from :func:`~repro.workloads.traces.poisson_arrivals`
-- are served open-loop, with arrival-gated admission and idle gaps.
Requests whose output would outgrow the context window are clamped to it
(the legacy loop generated past its own reservation, risking mid-decode
allocation failure).
"""

from __future__ import annotations

from repro.memory.static_alloc import AllocationError
from repro.serving.engine import EngineResult, ServingEngine
from repro.serving.interfaces import DecodeSystem, ServingResult, StepResult
from repro.workloads.traces import RequestTrace

__all__ = [
    "AllocationError",
    "DecodeSystem",
    "EngineResult",
    "ServingResult",
    "StepResult",
    "simulate_serving",
]


def simulate_serving(
    system: DecodeSystem,
    trace: RequestTrace,
    max_batch_size: int | None = None,
    step_stride: int = 1,
    system_name: str = "",
) -> EngineResult:
    """Run a decode serving simulation of ``trace`` on ``system``.

    Thin wrapper over :class:`~repro.serving.engine.ServingEngine` with the
    legacy defaults (FCFS admission, exact per-step latency evaluation).
    Arrival timestamps on the trace are honoured; a trace without them
    (every ``arrival_s`` at 0) whose requests fit the context window
    reproduces the legacy closed-loop loop's numbers exactly.  The
    returned :class:`EngineResult` is a
    :class:`ServingResult` extended with TTFT/TPOT and latency percentiles.

    Args:
        system: System model implementing :class:`DecodeSystem`.
        trace: Request trace to serve.
        max_batch_size: Optional hard cap on concurrent requests.
        step_stride: Advance this many decode steps per latency evaluation;
            contexts change slowly, so strides of 4-16 keep large sweeps
            cheap with negligible error.
        system_name: Label stored in the result.

    Returns:
        An :class:`EngineResult` with throughput and utilisation metrics.

    Raises:
        AllocationError: if a single request cannot fit the system's memory.
    """
    engine = ServingEngine(
        system=system,
        max_batch_size=max_batch_size,
        step_stride=step_stride,
    )
    return engine.run(trace, system_name=system_name)
