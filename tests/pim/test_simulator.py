"""Tests for the simulator primitives: breakdowns, schedule results, stream checks."""

import pytest

from repro.pim.isa import mac, read_output, write_input
from repro.pim.simulator import (
    CycleBreakdown,
    ScheduledCommand,
    ZERO_BREAKDOWN,
    validate_stream,
)
from repro.pim.config import PIMChannelConfig
from repro.pim.scheduling import StaticScheduler


class TestCycleBreakdown:
    def _sample(self) -> CycleBreakdown:
        return CycleBreakdown(
            mac=100, dt_gbuf=50, dt_outreg=25, act_pre=10, refresh=5, pipeline_penalty=10, total=200
        )

    def test_mac_utilization(self):
        assert self._sample().mac_utilization == pytest.approx(0.5)
        assert ZERO_BREAKDOWN.mac_utilization == 0.0

    def test_io_aggregate(self):
        assert self._sample().io == 75

    def test_addition_and_scaling(self):
        doubled = self._sample() + self._sample()
        scaled = self._sample().scaled(2.0)
        assert doubled.total == scaled.total == 400
        assert doubled.mac == scaled.mac == 200


class TestScheduledCommand:
    def test_completion_cannot_precede_issue(self):
        with pytest.raises(ValueError):
            ScheduledCommand(command=write_input(0, 0), issue=10, complete=5)


class TestScheduleResult:
    def test_makespan_and_issue_order(self, fig7_timing):
        commands = [write_input(0, 0), mac(1, 0, 0, row=-1), read_output(2, 0)]
        result = StaticScheduler(fig7_timing).schedule(commands)
        assert result.makespan == max(entry.complete for entry in result.scheduled)
        assert result.issue_order() == [0, 1, 2]
        assert result.policy == "static"

    def test_empty_stream(self, fig7_timing):
        result = StaticScheduler(fig7_timing).schedule([])
        assert result.makespan == 0
        assert result.breakdown.total == 0


class TestStreamValidation:
    def test_valid_stream_passes(self):
        channel = PIMChannelConfig()
        validate_stream([write_input(0, 0), mac(1, 0, 0), read_output(2, 0)], channel)

    def test_gbuf_overflow_detected(self):
        channel = PIMChannelConfig()
        with pytest.raises(ValueError, match="GBuf"):
            validate_stream([write_input(0, channel.gbuf_entries)], channel)

    def test_obuf_overflow_detected(self):
        channel = PIMChannelConfig()
        with pytest.raises(ValueError, match="output entry"):
            validate_stream([read_output(0, channel.obuf_entries)], channel)
