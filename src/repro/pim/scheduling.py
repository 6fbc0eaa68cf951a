"""PIM command scheduling policies: the static baseline and the shared
dependency-table machinery.

The conventional PIM controller (paper Sec. V-A) issues commands strictly in
program order and enforces conservative timing gaps derived from fixed
command execution times whenever the command *category* changes (input
transfer, compute, output transfer), because it does not track per-entry
data dependencies.  :class:`StaticScheduler` implements that behaviour.

:class:`TableDrivenScheduler` implements the D-Table / S-Table mechanism of
Sec. V-C at a configurable dependency granularity.  PIMphony's DCS uses
entry granularity (``repro.core.dcs``); the ping-pong baseline uses region
granularity (``repro.baselines.pingpong``).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.pim.config import PIMChannelConfig
from repro.pim.isa import PIMCommand, PIMOpcode
from repro.pim.simulator import (
    CommandScheduler,
    ScheduledCommand,
    ScheduleResult,
    _RowTracker,
)
from repro.pim.timing import PIMTiming


class _CommandClass(enum.Enum):
    """Conservative command categories used by the static scheduler."""

    INPUT = "input"
    COMPUTE = "compute"
    OUTPUT = "output"


def _command_class(opcode: PIMOpcode) -> _CommandClass:
    if opcode is PIMOpcode.WR_INP:
        return _CommandClass.INPUT
    if opcode is PIMOpcode.MAC:
        return _CommandClass.COMPUTE
    if opcode is PIMOpcode.RD_OUT:
        return _CommandClass.OUTPUT
    raise ValueError(f"{opcode} is not a channel-level command")


class StaticScheduler(CommandScheduler):
    """Conventional in-order PIM command scheduler.

    Issue rules:

    * Commands issue in program order, at least one occupancy interval after
      the previous command.
    * A command additionally waits for the completion of every previously
      issued command of a *different* category, because without per-entry
      dependency tracking the controller must assume a hazard.
    * A ``MAC`` targeting a row other than the open row pays the
      activate/precharge penalty before issue.
    """

    name = "static"

    def schedule(self, commands: Sequence[PIMCommand]) -> ScheduleResult:
        scheduled: list[ScheduledCommand] = []
        rows = _RowTracker(self.timing)
        last_issue: int | None = None
        last_occupancy = 0
        completion_by_class: dict[_CommandClass, int] = {}

        for command in commands:
            category = _command_class(command.opcode)
            earliest = 0 if last_issue is None else last_issue + last_occupancy
            for other_class, completion in completion_by_class.items():
                if other_class is not category:
                    earliest = max(earliest, completion)
            penalty = rows.access(command.row) if command.opcode is PIMOpcode.MAC else 0
            issue = earliest + penalty
            complete = issue + self.latency(command.opcode)
            scheduled.append(ScheduledCommand(command=command, issue=issue, complete=complete))
            completion_by_class[category] = max(completion_by_class.get(category, 0), complete)
            last_issue = issue
            last_occupancy = self.occupancy(command.opcode)

        return self._finalize(scheduled, act_pre_cycles=float(rows.penalty_cycles))


@dataclass
class _Dependency:
    """Resolved dependencies of one command (D-Table output)."""

    gbuf_source: int | None = None
    gbuf_readers: tuple[int, ...] = ()
    out_source: int | None = None
    out_drain: int | None = None


class TableDrivenScheduler(CommandScheduler):
    """Dependency-table scheduler shared by DCS and ping-pong buffering.

    The scheduler keeps two in-order queues -- one for I/O transfers
    (``WR-INP`` / ``RD-OUT``) and one for compute (``MAC``) -- and issues the
    queue head whose dependencies resolve first, which yields out-of-order
    execution *across* the queues while preserving order *within* each.

    Dependencies are tracked at a configurable granularity:

    * ``granularity=1`` tracks each buffer entry individually (PIMphony DCS).
    * coarser granularities group entries into regions, modelling ping-pong
      style double buffering where a whole region must be idle before the
      producer/consumer roles swap.
    """

    name = "table-driven"

    def __init__(
        self,
        timing: PIMTiming,
        channel: PIMChannelConfig | None = None,
        gbuf_regions: int = 0,
        out_regions: int = 0,
        handoff_penalty: int = 0,
    ) -> None:
        super().__init__(timing, channel)
        self.gbuf_regions = gbuf_regions
        self.out_regions = out_regions
        self.handoff_penalty = handoff_penalty

    # -- dependency-key helpers -----------------------------------------

    def _gbuf_key(self, entry: int) -> int:
        if self.gbuf_regions <= 0:
            return entry
        region_size = max(1, self.channel.gbuf_entries // self.gbuf_regions)
        return entry // region_size

    def _out_key(self, entry: int) -> int:
        if self.out_regions <= 0:
            return entry
        region_size = max(1, self.channel.obuf_entries // self.out_regions)
        return entry // region_size

    # -- D-Table pre-pass -----------------------------------------------

    def _resolve_dependencies(
        self, commands: Sequence[PIMCommand]
    ) -> dict[int, _Dependency]:
        """Walk the stream in program order and resolve per-command deps."""
        last_gbuf_writer: dict[int, int] = {}
        gbuf_readers: dict[int, list[int]] = {}
        last_out_mac: dict[int, int] = {}
        last_out_drain: dict[int, int] = {}
        last_out_accessor_is_drain: dict[int, bool] = {}
        dependencies: dict[int, _Dependency] = {}

        for command in commands:
            dep = _Dependency()
            if command.opcode is PIMOpcode.WR_INP:
                key = self._gbuf_key(command.gbuf_idx)
                dep.gbuf_readers = tuple(gbuf_readers.get(key, ()))
                last_gbuf_writer[key] = command.cmd_id
                gbuf_readers[key] = []
            elif command.opcode is PIMOpcode.MAC:
                gkey = self._gbuf_key(command.gbuf_idx)
                okey = self._out_key(command.out_idx)
                dep.gbuf_source = last_gbuf_writer.get(gkey)
                if last_out_accessor_is_drain.get(okey, False):
                    dep.out_drain = last_out_drain.get(okey)
                gbuf_readers.setdefault(gkey, []).append(command.cmd_id)
                last_out_mac[okey] = command.cmd_id
                last_out_accessor_is_drain[okey] = False
            elif command.opcode is PIMOpcode.RD_OUT:
                okey = self._out_key(command.out_idx)
                dep.out_source = last_out_mac.get(okey)
                last_out_drain[okey] = command.cmd_id
                last_out_accessor_is_drain[okey] = True
            dependencies[command.cmd_id] = dep
        return dependencies

    # -- scheduling loop -------------------------------------------------

    def schedule(self, commands: Sequence[PIMCommand]) -> ScheduleResult:
        dependencies = self._resolve_dependencies(commands)
        io_queue = [c for c in commands if c.opcode.is_io]
        compute_queue = [c for c in commands if c.opcode.is_compute]

        completion: dict[int, int] = {}
        scheduled: list[ScheduledCommand] = []
        rows = _RowTracker(self.timing)

        io_index = 0
        compute_index = 0
        io_next_free = 0
        compute_next_free = 0
        previous_compute_region: int | None = None
        handoff_cycles = 0

        def dependency_ready(command: PIMCommand) -> int | None:
            """Earliest cycle the command's dependencies allow, or None."""
            dep = dependencies[command.cmd_id]
            ready = 0
            sources: list[int] = []
            if dep.gbuf_source is not None:
                sources.append(dep.gbuf_source)
            if dep.out_source is not None:
                sources.append(dep.out_source)
            if dep.out_drain is not None:
                sources.append(dep.out_drain)
            sources.extend(dep.gbuf_readers)
            for source in sources:
                if source not in completion:
                    return None
                ready = max(ready, completion[source])
            return ready

        while io_index < len(io_queue) or compute_index < len(compute_queue):
            io_candidate: tuple[int, PIMCommand] | None = None
            compute_candidate: tuple[int, PIMCommand] | None = None

            if io_index < len(io_queue):
                command = io_queue[io_index]
                ready = dependency_ready(command)
                if ready is not None:
                    io_candidate = (max(ready, io_next_free), command)
            if compute_index < len(compute_queue):
                command = compute_queue[compute_index]
                ready = dependency_ready(command)
                if ready is not None:
                    compute_candidate = (max(ready, compute_next_free), command)

            if io_candidate is None and compute_candidate is None:
                raise RuntimeError(
                    "scheduling deadlock: no queue head has resolved dependencies"
                )

            use_compute = False
            if compute_candidate is not None and (
                io_candidate is None or compute_candidate[0] <= io_candidate[0]
            ):
                use_compute = True

            if use_compute:
                issue, command = compute_candidate  # type: ignore[misc]
                penalty = rows.access(command.row)
                region = self._out_key(command.out_idx)
                if (
                    self.handoff_penalty
                    and previous_compute_region is not None
                    and region != previous_compute_region
                ):
                    penalty += self.handoff_penalty
                    handoff_cycles += self.handoff_penalty
                previous_compute_region = region
                issue += penalty
                complete = issue + self.latency(command.opcode)
                compute_next_free = issue + self.occupancy(command.opcode)
                compute_index += 1
            else:
                issue, command = io_candidate  # type: ignore[misc]
                complete = issue + self.latency(command.opcode)
                io_next_free = issue + self.occupancy(command.opcode)
                io_index += 1

            completion[command.cmd_id] = complete
            scheduled.append(ScheduledCommand(command=command, issue=issue, complete=complete))

        scheduled.sort(key=lambda entry: (entry.issue, entry.command.cmd_id))
        return self._finalize(scheduled, act_pre_cycles=float(rows.penalty_cycles))
