"""Reactive replica autoscaler driving the fleet timeline.

The :class:`ReactiveAutoscaler` is a deliberately simple threshold
controller -- the kind production fleets actually run: every
``interval_s`` it samples one load signal over the accepting replicas and
compares it against a scale-up and a scale-down threshold, rate-limited
by a cooldown.  It decides *what* to do; the fleet timeline sweep
(:meth:`ReplicaRouter.run <repro.serving.router.ReplicaRouter.run>`, fed
the autoscaler by a :class:`~repro.serving.fleet_events.DynamicFleetRouter`)
applies the decision, charging the cold-start delay before a new replica
accepts work and letting a drained replica finish its in-flight requests.

Signals:

* ``"queue-depth"`` -- mean outstanding requests per accepting replica on
  the router's estimated view (the same view dispatch uses).
* ``"ttft-ewma"`` -- an EWMA over the router's *estimated*
  time-to-first-token at each dispatch (prefill estimate plus the queue
  ahead times the estimated step time).  It is a proxy for measured
  TTFT-p95: the router cannot observe true TTFTs online because segment
  engines run after dispatch, but the estimate moves with the same queue
  pressure the true percentile does.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

#: Decision labels recorded on the timeline.
SCALE_UP = "scale_up"
SCALE_DOWN = "scale_down"


@dataclass(frozen=True)
class ScalingDecision:
    """One autoscaler decision, recorded for the report's timeline block."""

    at_s: float
    action: str
    signal_value: float
    replicas_before: int
    replicas_after: int


class ReactiveAutoscaler:
    """Threshold controller over a queue-depth or estimated-TTFT signal.

    Args:
        signal: ``"queue-depth"`` or ``"ttft-ewma"``.
        scale_up_threshold: Signal level above which a replica is added.
        scale_down_threshold: Signal level below which one is drained.
        min_replicas: Never drain below this many accepting replicas.
        max_replicas: Never grow beyond this many provisioned replicas
            (accepting plus cold-starting).
        interval_s: Evaluation period (the timeline calls :meth:`decide`
            at this cadence).
        cooldown_s: Minimum time between two decisions.
        cold_start_s: Delay before a freshly added replica accepts work
            (applied by the fleet timeline; carried here so one object
            describes the whole controller).
        ewma_alpha: Smoothing weight of the ``"ttft-ewma"`` signal.
    """

    def __init__(
        self,
        signal: str = "queue-depth",
        scale_up_threshold: float = 4.0,
        scale_down_threshold: float = 1.0,
        min_replicas: int = 1,
        max_replicas: int = 8,
        interval_s: float = 5.0,
        cooldown_s: float = 30.0,
        cold_start_s: float = 10.0,
        ewma_alpha: float = 0.3,
    ) -> None:
        if signal not in ("queue-depth", "ttft-ewma"):
            raise ValueError(
                f"signal must be 'queue-depth' or 'ttft-ewma', got {signal!r}"
            )
        if not (scale_up_threshold > 0 and math.isfinite(scale_up_threshold)):
            raise ValueError("scale_up_threshold must be positive and finite")
        if not (scale_down_threshold >= 0 and math.isfinite(scale_down_threshold)):
            raise ValueError("scale_down_threshold must be non-negative and finite")
        if scale_down_threshold >= scale_up_threshold:
            raise ValueError(
                "scale_down_threshold must be below scale_up_threshold "
                "(equal thresholds would oscillate every interval)"
            )
        if min_replicas < 1 or max_replicas < min_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if not (interval_s > 0 and math.isfinite(interval_s)):
            raise ValueError("interval_s must be positive and finite")
        if cooldown_s < 0 or not math.isfinite(cooldown_s):
            raise ValueError("cooldown_s must be non-negative and finite")
        if cold_start_s < 0 or not math.isfinite(cold_start_s):
            raise ValueError("cold_start_s must be non-negative and finite")
        if not 0.0 <= ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be within [0, 1]")
        self.signal = signal
        self.scale_up_threshold = scale_up_threshold
        self.scale_down_threshold = scale_down_threshold
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.interval_s = interval_s
        self.cooldown_s = cooldown_s
        self.cold_start_s = cold_start_s
        self.ewma_alpha = ewma_alpha
        self.decisions: list[ScalingDecision] = []
        self._last_decision_s = -math.inf
        self._ttft_ewma: float | None = None

    def reset(self) -> None:
        """Clear decision history and the TTFT EWMA (start of a run)."""
        self.decisions.clear()
        self._last_decision_s = -math.inf
        self._ttft_ewma = None

    def observe_ttft(self, estimate_s: float) -> None:
        """Fold one dispatch-time TTFT estimate into the EWMA signal."""
        if self._ttft_ewma is None:
            self._ttft_ewma = estimate_s
        else:
            self._ttft_ewma = (
                (1.0 - self.ewma_alpha) * self._ttft_ewma + self.ewma_alpha * estimate_s
            )

    def current_signal(self, outstanding: Sequence[int]) -> float:
        """Signal value right now, given per-accepting-replica queue depths."""
        if self.signal == "queue-depth":
            if not outstanding:
                return 0.0
            return sum(outstanding) / len(outstanding)
        return self._ttft_ewma if self._ttft_ewma is not None else 0.0

    def decide(
        self,
        now_s: float,
        provisioned_replicas: int,
        accepting_replicas: int,
        outstanding: Sequence[int],
    ) -> str | None:
        """Evaluate one tick; returns ``"scale_up"``, ``"scale_down"`` or ``None``.

        Args:
            now_s: Tick timestamp.
            provisioned_replicas: Accepting plus cold-starting replicas
                (bounded by ``max_replicas``).
            accepting_replicas: Replicas currently taking work (floored at
                ``min_replicas``).
            outstanding: Estimated queue depth of each accepting replica.
        """
        if now_s - self._last_decision_s < self.cooldown_s:
            return None
        value = self.current_signal(outstanding)
        action: str | None = None
        after = provisioned_replicas
        if value > self.scale_up_threshold and provisioned_replicas < self.max_replicas:
            action = SCALE_UP
            after = provisioned_replicas + 1
        elif value < self.scale_down_threshold and accepting_replicas > self.min_replicas:
            action = SCALE_DOWN
            after = provisioned_replicas - 1
        if action is None:
            return None
        self._last_decision_s = now_s
        self.decisions.append(
            ScalingDecision(
                at_s=now_s,
                action=action,
                signal_value=value,
                replicas_before=provisioned_replicas,
                replicas_after=after,
            )
        )
        return action


__all__ = ["SCALE_DOWN", "SCALE_UP", "ReactiveAutoscaler", "ScalingDecision"]
