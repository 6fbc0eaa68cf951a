"""Tests for lowering to explicit PIM command / instruction streams."""

import pytest

from repro.compiler.ir import Operation, OpType
from repro.compiler.lowering import (
    expand_program_to_commands,
    lower_gemv_to_commands,
    lower_operator_to_instructions,
)
from repro.pim.isa import PIMOpcode
from repro.pim.kernels import build_fc_gemv_program, caps_for_policy
from repro.pim.simulator import validate_stream


class TestGEMVLowering:
    def test_stream_respects_buffer_bounds(self, channel):
        caps = caps_for_policy(channel, "dcs")
        commands = lower_gemv_to_commands(512, 256, channel, caps)
        validate_stream(commands, channel)

    def test_command_ids_unique_and_ordered(self, channel):
        caps = caps_for_policy(channel, "dcs")
        commands = lower_gemv_to_commands(256, 256, channel, caps)
        ids = [command.cmd_id for command in commands]
        assert ids == list(range(len(ids)))

    def test_every_mac_reads_a_written_entry(self, channel):
        caps = caps_for_policy(channel, "static")
        commands = lower_gemv_to_commands(2048, 64, channel, caps)
        written: set[int] = set()
        for command in commands:
            if command.opcode is PIMOpcode.WR_INP:
                written.add(command.gbuf_idx)
            elif command.opcode is PIMOpcode.MAC:
                assert command.gbuf_idx in written

    def test_rows_advance_with_weight_tiles(self, channel):
        caps = caps_for_policy(channel, "dcs")
        commands = lower_gemv_to_commands(1024, 1024, channel, caps, tiles_per_row=32)
        rows = [command.row for command in commands if command.opcode is PIMOpcode.MAC]
        assert rows == sorted(rows)
        assert rows[-1] == len(rows) // 32 - (1 if len(rows) % 32 == 0 else 0)

    def test_empty_gemv(self, channel):
        assert lower_gemv_to_commands(0, 128, channel, caps_for_policy(channel, "dcs")) == []


class TestProgramExpansion:
    def test_expansion_matches_program_counts(self, channel):
        caps = caps_for_policy(channel, "dcs")
        program = build_fc_gemv_program(256, 128, channel, caps)
        commands = expand_program_to_commands(program, caps)
        assert len(commands) == program.n_wr_inp + program.n_mac + program.n_rd_out
        validate_stream(commands, channel)

    def test_expansion_guard_against_huge_programs(self, channel):
        caps = caps_for_policy(channel, "dcs")
        program = build_fc_gemv_program(8192, 8192, channel, caps)
        with pytest.raises(ValueError, match="commands"):
            expand_program_to_commands(program, caps, max_commands=1000)


class TestInstructionLowering:
    def test_triple_structure(self):
        operation = Operation(name="qkt", op_type=OpType.MATMUL, attrs={"role": "qkt"})
        instructions = lower_operator_to_instructions(operation, channel_mask=0xF, op_size=64)
        opcodes = [instruction.opcode for instruction in instructions]
        assert opcodes == [PIMOpcode.WR_INP, PIMOpcode.MAC, PIMOpcode.RD_OUT]
        assert instructions[1].op_size == 64

    def test_non_amenable_operation_rejected(self):
        operation = Operation(name="softmax", op_type=OpType.SOFTMAX)
        with pytest.raises(ValueError):
            lower_operator_to_instructions(operation, 0xF, 1)
