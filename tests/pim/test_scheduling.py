"""Tests for command schedulers: the Fig. 7 anchor and ordering semantics."""

from itertools import pairwise

import pytest

from repro.baselines.pingpong import PingPongScheduler
from repro.core.dcs import DCSScheduler
from repro.pim.config import PIMChannelConfig
from repro.pim.isa import mac, read_output, write_input
from repro.pim.scheduling import StaticScheduler


def fig7_command_stack():
    """The command stack of paper Fig. 7: two output groups of a small GEMV."""
    return [
        write_input(0, 0),
        write_input(1, 1),
        write_input(2, 2),
        mac(3, 0, 0, row=-1),
        mac(4, 1, 0, row=-1),
        mac(5, 2, 0, row=-1),
        read_output(6, 0),
        mac(7, 0, 1, row=-1),
        mac(8, 1, 1, row=-1),
        mac(9, 2, 1, row=-1),
        read_output(10, 1),
    ]


class TestFig7Anchor:
    def test_static_schedule_takes_34_cycles(self, fig7_timing):
        """The paper's Fig. 7(b) static schedule finishes at cycle 34."""
        result = StaticScheduler(fig7_timing).schedule(fig7_command_stack())
        assert result.makespan == 34

    def test_dcs_schedule_close_to_paper_22_cycles(self, fig7_timing):
        """Fig. 7(d): DCS compresses the stack to 22 cycles (we measure 23)."""
        result = DCSScheduler(fig7_timing).schedule(fig7_command_stack())
        assert 21 <= result.makespan <= 24

    def test_dcs_much_faster_than_static(self, fig7_timing):
        static = StaticScheduler(fig7_timing).schedule(fig7_command_stack())
        dcs = DCSScheduler(fig7_timing).schedule(fig7_command_stack())
        assert static.makespan / dcs.makespan > 1.4

    def test_dcs_issues_independent_mac_before_rd_out(self, fig7_timing):
        """M7 has no dependency on R6 and may issue before it (out-of-order)."""
        result = DCSScheduler(fig7_timing).schedule(fig7_command_stack())
        order = result.issue_order()
        assert order.index(7) < order.index(6)


class TestStaticScheduler:
    def test_issues_strictly_in_program_order(self, fig7_timing):
        result = StaticScheduler(fig7_timing).schedule(fig7_command_stack())
        assert result.issue_order() == list(range(11))

    def test_category_boundary_serialises(self, fig7_timing):
        """A MAC waits for *all* preceding writes, even unrelated ones."""
        commands = [write_input(0, 0), write_input(1, 1), mac(2, 0, 0, row=-1)]
        result = StaticScheduler(fig7_timing).schedule(commands)
        issue = {entry.command.cmd_id: entry.issue for entry in result.scheduled}
        completes = {entry.command.cmd_id: entry.complete for entry in result.scheduled}
        assert issue[2] >= completes[1]

    def test_row_switch_penalty_accounted(self, timing):
        commands = [
            write_input(0, 0),
            mac(1, 0, 0, row=0),
            mac(2, 0, 0, row=1),
            mac(3, 0, 0, row=1),
        ]
        result = StaticScheduler(timing).schedule(commands)
        # Two activations: row 0 (idle->open) and row 1 (switch).
        expected = timing.dram.t_rcd + timing.dram.row_switch_cycles
        assert result.breakdown.act_pre == expected

    def test_same_category_pipelines_at_occupancy(self, fig7_timing):
        commands = [write_input(index, index % 4) for index in range(5)]
        result = StaticScheduler(fig7_timing).schedule(commands)
        issues = [entry.issue for entry in result.scheduled]
        gaps = [b - a for a, b in pairwise(issues)]
        assert all(gap == fig7_timing.wr_inp_occupancy for gap in gaps)


class TestDCSScheduler:
    def test_true_dependencies_still_respected(self, fig7_timing):
        """A MAC never issues before the write that produces its input ends."""
        result = DCSScheduler(fig7_timing).schedule(fig7_command_stack())
        times = {entry.command.cmd_id: entry for entry in result.scheduled}
        for mac_id, wr_id in ((3, 0), (4, 1), (5, 2), (7, 0), (8, 1), (9, 2)):
            assert times[mac_id].issue >= times[wr_id].complete

    def test_rd_out_waits_for_last_mac_of_its_group(self, fig7_timing):
        result = DCSScheduler(fig7_timing).schedule(fig7_command_stack())
        times = {entry.command.cmd_id: entry for entry in result.scheduled}
        assert times[6].issue >= times[5].complete
        assert times[10].issue >= times[9].complete

    def test_order_preserved_within_each_queue(self, fig7_timing):
        result = DCSScheduler(fig7_timing).schedule(fig7_command_stack())
        order = result.issue_order()
        io_ids = [cmd_id for cmd_id in order if cmd_id in (0, 1, 2, 6, 10)]
        mac_ids = [cmd_id for cmd_id in order if cmd_id in (3, 4, 5, 7, 8, 9)]
        assert io_ids == [0, 1, 2, 6, 10]
        assert mac_ids == [3, 4, 5, 7, 8, 9]

    def test_never_slower_than_static_on_gemv_streams(self, timing):
        from repro.compiler.lowering import lower_gemv_to_commands
        from repro.pim.kernels import caps_for_policy

        channel = PIMChannelConfig()
        for in_dim, out_dim in ((128, 128), (256, 256), (512, 128)):
            commands = lower_gemv_to_commands(
                in_dim, out_dim, channel, caps_for_policy(channel, "dcs")
            )
            static = StaticScheduler(timing, channel).schedule(commands)
            dcs = DCSScheduler(timing, channel).schedule(commands)
            assert dcs.makespan <= static.makespan

    def test_metadata_table_is_small(self, timing, channel):
        scheduler = DCSScheduler(timing, channel)
        assert scheduler.metadata_table_bytes <= 1024


class TestPingPongScheduler:
    def test_between_static_and_dcs_on_streamed_kernel(self, timing):
        """On a kernel that alternates fills and compute, ping-pong beats the
        static scheduler but loses to DCS (paper Fig. 18)."""
        from repro.compiler.lowering import lower_gemv_to_commands
        from repro.pim.kernels import caps_for_policy

        channel = PIMChannelConfig(gbuf_bytes=512)  # small GBuf forces streaming
        commands = lower_gemv_to_commands(
            1024, 64, channel, caps_for_policy(channel, "dcs")
        )
        static = StaticScheduler(timing, channel).schedule(commands)
        pingpong = PingPongScheduler(timing, channel).schedule(commands)
        dcs = DCSScheduler(timing, channel).schedule(commands)
        assert dcs.makespan <= pingpong.makespan <= static.makespan
        assert dcs.makespan < static.makespan

    def test_respects_write_read_dependencies(self, fig7_timing):
        result = PingPongScheduler(fig7_timing).schedule(fig7_command_stack())
        times = {entry.command.cmd_id: entry for entry in result.scheduled}
        for mac_id, wr_id in ((3, 0), (4, 1), (5, 2)):
            assert times[mac_id].issue >= times[wr_id].complete


class TestBreakdownAccounting:
    def test_static_components_sum_to_total(self, timing):
        """Under static scheduling nothing overlaps, so the busy components
        plus the residual pipeline penalty reconstruct the makespan."""
        from repro.compiler.lowering import lower_gemv_to_commands
        from repro.pim.kernels import caps_for_policy

        channel = PIMChannelConfig()
        commands = lower_gemv_to_commands(256, 256, channel, caps_for_policy(channel, "static"))
        breakdown = StaticScheduler(timing, channel).schedule(commands).breakdown
        reconstructed = (
            breakdown.mac
            + breakdown.dt_gbuf
            + breakdown.dt_outreg
            + breakdown.act_pre
            + breakdown.refresh
            + breakdown.pipeline_penalty
        )
        assert reconstructed == pytest.approx(breakdown.total, rel=1e-6)

    def test_dcs_overlaps_io_with_compute(self, timing):
        """Under DCS the busy components exceed the makespan (overlap), and
        the makespan can never drop below the MAC stream itself."""
        from repro.compiler.lowering import lower_gemv_to_commands
        from repro.pim.kernels import caps_for_policy

        channel = PIMChannelConfig()
        commands = lower_gemv_to_commands(256, 256, channel, caps_for_policy(channel, "dcs"))
        breakdown = DCSScheduler(timing, channel).schedule(commands).breakdown
        busy = breakdown.mac + breakdown.dt_gbuf + breakdown.dt_outreg + breakdown.act_pre
        assert busy > breakdown.total - breakdown.refresh - breakdown.pipeline_penalty
        assert breakdown.total >= breakdown.mac
        assert breakdown.pipeline_penalty >= 0.0

    def test_command_counts_reflected_in_busy_cycles(self, timing):
        commands = [write_input(0, 0), write_input(1, 1), mac(2, 0, 0, row=-1), read_output(3, 0)]
        breakdown = StaticScheduler(timing).schedule(commands).breakdown
        assert breakdown.dt_gbuf == 2 * timing.wr_inp_occupancy
        assert breakdown.mac == timing.mac_occupancy
        assert breakdown.dt_outreg == timing.rd_out_occupancy
