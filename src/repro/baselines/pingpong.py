"""Ping-pong (double) buffering baseline, paper Sec. VIII-C and Fig. 18.

Ping-pong buffering splits each buffer into two regions so that I/O
transfers into one region can overlap computation on the other.  Because
the controller does not know per-entry dependencies, the roles of the two
regions can only swap after both regions become idle, which introduces
hand-off pipeline stalls -- the effect DCS removes with entry-granular
dependency tracking.
"""

from __future__ import annotations

from repro.pim.config import PIMChannelConfig
from repro.pim.scheduling import TableDrivenScheduler
from repro.pim.timing import PIMTiming


class PingPongScheduler(TableDrivenScheduler):
    """Region-granular double-buffering scheduler."""

    name = "pingpong"

    def __init__(self, timing: PIMTiming, channel: PIMChannelConfig | None = None) -> None:
        resolved_channel = channel if channel is not None else PIMChannelConfig()
        handoff = timing.mac_latency_cycles
        super().__init__(
            timing,
            resolved_channel,
            gbuf_regions=2,
            out_regions=2,
            handoff_penalty=handoff,
        )
