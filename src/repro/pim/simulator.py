"""Command-level PIM channel simulator primitives.

The simulator schedules explicit :class:`~repro.pim.isa.PIMCommand` streams
for a single PIM channel under a pluggable scheduling policy and reports the
latency decomposition used throughout the paper's figures: MAC busy time,
GBuf / OutReg transfer time, DRAM activate/precharge time, refresh time and
the residual pipeline penalty (stalls).

Concrete policies:

* :class:`repro.pim.scheduling.StaticScheduler` -- the conventional in-order
  scheduler that serialises I/O and compute at every category boundary.
* :class:`repro.core.dcs.DCSScheduler` -- PIMphony's dependency-aware
  out-of-order scheduler (D-Table / S-Table).
* :class:`repro.baselines.pingpong.PingPongScheduler` -- double-buffering
  with region-granular dependencies.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import attrgetter

from repro.dram.refresh import RefreshModel
from repro.pim.config import PIMChannelConfig
from repro.pim.isa import PIMCommand, PIMOpcode
from repro.pim.timing import PIMTiming


@dataclass(frozen=True)
class CycleBreakdown:
    """Latency decomposition of a command stream (paper Fig. 8 categories).

    Attributes:
        mac: Cycles the MAC pipeline performed useful work.
        dt_gbuf: Cycles spent transferring input tiles into the GBuf.
        dt_outreg: Cycles spent draining results from the OutRegs / OBuf.
        act_pre: Cycles spent on DRAM row activate / precharge.
        refresh: Cycles lost to DRAM refresh.
        pipeline_penalty: Residual stall cycles (serialisation, hand-offs).
        total: End-to-end cycles of the stream.
    """

    mac: float
    dt_gbuf: float
    dt_outreg: float
    act_pre: float
    refresh: float
    pipeline_penalty: float
    total: float

    @property
    def io(self) -> float:
        """Total I/O transfer cycles."""
        return self.dt_gbuf + self.dt_outreg

    @property
    def mac_utilization(self) -> float:
        """Fraction of total time the MAC pipeline did useful work."""
        if self.total <= 0:
            return 0.0
        return self.mac / self.total

    def scaled(self, factor: float) -> CycleBreakdown:
        """Scale every component by ``factor`` (e.g. repetition counts)."""
        return CycleBreakdown(
            mac=self.mac * factor,
            dt_gbuf=self.dt_gbuf * factor,
            dt_outreg=self.dt_outreg * factor,
            act_pre=self.act_pre * factor,
            refresh=self.refresh * factor,
            pipeline_penalty=self.pipeline_penalty * factor,
            total=self.total * factor,
        )

    def __add__(self, other: CycleBreakdown) -> CycleBreakdown:
        return CycleBreakdown(
            mac=self.mac + other.mac,
            dt_gbuf=self.dt_gbuf + other.dt_gbuf,
            dt_outreg=self.dt_outreg + other.dt_outreg,
            act_pre=self.act_pre + other.act_pre,
            refresh=self.refresh + other.refresh,
            pipeline_penalty=self.pipeline_penalty + other.pipeline_penalty,
            total=self.total + other.total,
        )


ZERO_BREAKDOWN = CycleBreakdown(
    mac=0.0, dt_gbuf=0.0, dt_outreg=0.0, act_pre=0.0, refresh=0.0, pipeline_penalty=0.0, total=0.0
)

#: A breakdown's fields as a tuple, in :class:`CycleBreakdown` order.
breakdown_fields = attrgetter(*(field.name for field in fields(CycleBreakdown)))


@dataclass(frozen=True)
class ScheduledCommand:
    """A command together with its scheduled issue and completion cycles."""

    command: PIMCommand
    issue: int
    complete: int

    def __post_init__(self) -> None:
        if self.complete < self.issue:
            raise ValueError("complete must not precede issue")


@dataclass
class ScheduleResult:
    """Output of scheduling one command stream on one channel."""

    scheduled: list[ScheduledCommand]
    breakdown: CycleBreakdown
    policy: str

    @property
    def total_cycles(self) -> float:
        return self.breakdown.total

    @property
    def makespan(self) -> int:
        """Completion cycle of the last command (before refresh accounting)."""
        if not self.scheduled:
            return 0
        return max(entry.complete for entry in self.scheduled)

    def issue_order(self) -> list[int]:
        """Command ids sorted by issue time (ties broken by program order)."""
        ordered = sorted(self.scheduled, key=lambda entry: (entry.issue, entry.command.cmd_id))
        return [entry.command.cmd_id for entry in ordered]


@dataclass
class _RowTracker:
    """Tracks the open DRAM row of the (lock-stepped) banks of a channel."""

    timing: PIMTiming
    open_row: int | None = None
    activations: int = 0
    penalty_cycles: int = 0

    def access(self, row: int) -> int:
        """Return the stall incurred by accessing ``row`` and update state."""
        if row < 0:
            return 0
        if self.open_row == row:
            return 0
        if self.open_row is None:
            penalty = self.timing.dram.t_rcd
        else:
            penalty = self.timing.dram.row_switch_cycles
        self.open_row = row
        self.activations += 1
        self.penalty_cycles += penalty
        return penalty


class CommandScheduler(abc.ABC):
    """Base class for PIM command scheduling policies."""

    #: Short policy name used in reports and plots.
    name: str = "base"

    def __init__(self, timing: PIMTiming, channel: PIMChannelConfig | None = None) -> None:
        self.timing = timing
        self.channel = channel if channel is not None else PIMChannelConfig()

    @abc.abstractmethod
    def schedule(self, commands: Sequence[PIMCommand]) -> ScheduleResult:
        """Schedule ``commands`` and return per-command times plus breakdown."""

    # -- shared helpers -------------------------------------------------

    def occupancy(self, opcode: PIMOpcode) -> int:
        """Issue-resource holding time of ``opcode``."""
        if opcode is PIMOpcode.WR_INP:
            return self.timing.wr_inp_occupancy
        if opcode is PIMOpcode.MAC:
            return self.timing.mac_occupancy
        if opcode is PIMOpcode.RD_OUT:
            return self.timing.rd_out_occupancy
        raise ValueError(f"{opcode} has no channel-level occupancy")

    def latency(self, opcode: PIMOpcode) -> int:
        """Completion latency of ``opcode``."""
        if opcode is PIMOpcode.WR_INP:
            return self.timing.wr_inp_latency_cycles
        if opcode is PIMOpcode.MAC:
            return self.timing.mac_latency_cycles
        if opcode is PIMOpcode.RD_OUT:
            return self.timing.rd_out_latency_cycles
        raise ValueError(f"{opcode} has no channel-level latency")

    def _finalize(
        self,
        scheduled: list[ScheduledCommand],
        act_pre_cycles: float,
        include_refresh: bool = True,
    ) -> ScheduleResult:
        """Compute the cycle breakdown for a completed schedule."""
        n_mac = sum(1 for entry in scheduled if entry.command.opcode is PIMOpcode.MAC)
        n_wr = sum(1 for entry in scheduled if entry.command.opcode is PIMOpcode.WR_INP)
        n_rd = sum(1 for entry in scheduled if entry.command.opcode is PIMOpcode.RD_OUT)
        makespan = max((entry.complete for entry in scheduled), default=0)

        mac_cycles = n_mac * self.timing.mac_occupancy
        dt_gbuf = n_wr * self.timing.wr_inp_occupancy
        dt_outreg = n_rd * self.timing.rd_out_occupancy
        refresh = 0.0
        if include_refresh and makespan > 0:
            refresh = RefreshModel(self.timing.dram).refresh_cycles(makespan)
        total = makespan + refresh
        penalty = total - (mac_cycles + dt_gbuf + dt_outreg + act_pre_cycles + refresh)
        breakdown = CycleBreakdown(
            mac=float(mac_cycles),
            dt_gbuf=float(dt_gbuf),
            dt_outreg=float(dt_outreg),
            act_pre=float(act_pre_cycles),
            refresh=refresh,
            pipeline_penalty=max(0.0, penalty),
            total=float(total),
        )
        return ScheduleResult(scheduled=scheduled, breakdown=breakdown, policy=self.name)


def validate_stream(commands: Sequence[PIMCommand], channel: PIMChannelConfig) -> None:
    """Validate that a command stream respects the channel's buffer sizes.

    Raises:
        ValueError: if any command references an out-of-range buffer entry.
    """
    for command in commands:
        if command.opcode in (PIMOpcode.WR_INP, PIMOpcode.MAC):
            if command.gbuf_idx < 0 or command.gbuf_idx >= channel.gbuf_entries:
                raise ValueError(
                    f"command {command.cmd_id} references GBuf entry {command.gbuf_idx} "
                    f"outside 0..{channel.gbuf_entries - 1}"
                )
        if command.opcode in (PIMOpcode.MAC, PIMOpcode.RD_OUT):
            if command.out_idx < 0 or command.out_idx >= channel.obuf_entries:
                raise ValueError(
                    f"command {command.cmd_id} references output entry {command.out_idx} "
                    f"outside 0..{channel.obuf_entries - 1}"
                )
