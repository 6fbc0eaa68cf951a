"""Prefill/decode disaggregation: a two-pool fleet with modelled KV handoff.

Colocated chunked prefill makes every decode step pay for whatever prompt
work is in flight (`busy += step_seconds * stride + prefill_step_seconds`),
so a burst of long prompts stretches the inter-token latency of *all*
resident requests.  The disaggregated topology splits the fleet instead:

* a **prefill pool** (:class:`~repro.serving.disagg.handoff.PrefillPool`)
  of dedicated replicas runs each prompt's chunked prefill to completion,
  serially per replica in arrival order;
* the finished KV is **preempted** off the prefill replica -- the same
  :meth:`~repro.serving.interfaces.KVLifecycle.preempt` receipt the
  preemption subsystem uses -- and shipped to a decode replica over a
  modelled interconnect, charging
  :meth:`~repro.system.interconnect.InterconnectConfig.point_to_point_seconds`
  of the request's KV bytes to the simulated clock;
* a **decode pool** (an ordinary
  :class:`~repro.serving.router.ReplicaRouter`, KV-balanced by default)
  re-admits each request via
  :meth:`~repro.serving.interfaces.KVLifecycle.restore` (the engine's
  ``kv_handoff`` receipts) and serves pure decode, with no prefill
  interference at all.

:class:`~repro.serving.disagg.router.DisaggRouter` composes the two pools
behind the same ``run(trace)`` interface a :class:`ReplicaRouter` exposes
and stitches per-request records back together afterwards, so TTFT spans
the whole pipeline (prefill queue + prefill + transfer + decode queue +
first token) while TPOT measures pure decode.  It returns the same
:class:`~repro.serving.router.FleetResult` as every other fleet, with the
handoff accounting in its ``disagg`` block
(:class:`~repro.serving.disagg.router.DisaggReport`).
"""

from __future__ import annotations

from repro.serving.disagg.handoff import HandoffRecord, PrefillPhase, PrefillPool
from repro.serving.disagg.router import DisaggReport, DisaggRouter

__all__ = [
    "DisaggReport",
    "DisaggRouter",
    "HandoffRecord",
    "PrefillPhase",
    "PrefillPool",
]
