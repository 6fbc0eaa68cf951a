"""Dynamic PIM Command Scheduling (DCS), paper Sec. V.

DCS extends the PIM controller with a Dependency Table (which command last
touched each GBuf / OBuf entry) and a Status Table (when that access
completes), allowing I/O transfer commands and ``MAC`` commands to issue
out of order with respect to each other whenever no true per-entry data
dependency exists.  Combined with I/O-aware buffering (the expanded Output
Buffers), this hides input/output transfer time behind computation.
"""

from __future__ import annotations

from repro.pim.config import PIMChannelConfig
from repro.pim.scheduling import TableDrivenScheduler
from repro.pim.timing import PIMTiming


class DCSScheduler(TableDrivenScheduler):
    """PIMphony's dependency-aware, entry-granular command scheduler."""

    name = "dcs"

    def __init__(self, timing: PIMTiming, channel: PIMChannelConfig | None = None) -> None:
        super().__init__(
            timing,
            channel,
            gbuf_regions=0,
            out_regions=0,
            handoff_penalty=0,
        )

    @property
    def metadata_table_bytes(self) -> int:
        """SRAM footprint of the D-Table and S-Table (paper: 576B/controller).

        Each GBuf entry needs a command id and expiration timestamp (6B) and
        each OBuf entry additionally needs the ``is-MAC`` flag.
        """
        gbuf_entries = self.channel.gbuf_entries
        obuf_entries = self.channel.obuf_entries
        return gbuf_entries * 6 + obuf_entries * 12
