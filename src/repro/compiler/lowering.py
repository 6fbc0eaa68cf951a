"""Lowering of kernels to explicit PIM command streams.

Two levels of code generation are provided:

* :func:`lower_gemv_to_commands` emits the explicit per-channel command
  stream of a (small) GEMV for the exact command-level simulator -- used by
  the microbenchmarks (Fig. 7--9) and for cross-validating the closed-form
  kernel estimators.
* :func:`expand_program_to_commands` expands a phase-level
  :class:`~repro.pim.kernels.KernelProgram` into an explicit command stream,
  assigning buffer entries round-robin and DRAM rows following the
  row-reuse mapping.
* :func:`lower_operator_to_instructions` emits module-level
  :class:`~repro.pim.isa.PIMInstruction` sequences (with ``Op-size``
  repetition counts) for a matched IR operation, which is what the PIM HUB's
  instruction sequencer consumes.
"""

from __future__ import annotations

from repro.compiler.ir import Operation
from repro.pim.config import ELEMENTS_PER_TILE, PIMChannelConfig
from repro.pim.isa import PIMCommand, PIMInstruction, PIMOpcode
from repro.pim.kernels import BufferCaps, KernelProgram


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def lower_gemv_to_commands(
    in_dim: int,
    out_dim: int,
    channel: PIMChannelConfig,
    caps: BufferCaps,
    tiles_per_row: int = 32,
) -> list[PIMCommand]:
    """Emit the explicit command stream of a channel GEMV.

    The mapping matches :func:`repro.pim.kernels.build_fc_gemv_program`:
    input tiles are kept resident when they fit in the GBuf, otherwise they
    are streamed in blocks with per-block partial-sum drains.  Weight tiles
    are visited row-major so consecutive MACs reuse the open DRAM row.
    """
    if in_dim <= 0 or out_dim <= 0:
        return []
    n_in = _ceil_div(in_dim, ELEMENTS_PER_TILE)
    n_og = _ceil_div(out_dim, channel.num_banks)
    block = min(n_in, caps.gbuf_entries)

    commands: list[PIMCommand] = []
    cmd_id = 0

    def next_id() -> int:
        nonlocal cmd_id
        value = cmd_id
        cmd_id += 1
        return value

    for block_start in range(0, n_in, block):
        block_tiles = min(block, n_in - block_start)
        for tile in range(block_tiles):
            commands.append(
                PIMCommand(cmd_id=next_id(), opcode=PIMOpcode.WR_INP, gbuf_idx=tile)
            )
        for group in range(n_og):
            out_entry = group % caps.obuf_entries
            for tile in range(block_tiles):
                # DRAM address of the weight tile for (output group, input
                # tile): group-major layout, independent of input blocking.
                weight_tile_index = group * n_in + block_start + tile
                row = weight_tile_index // tiles_per_row
                col = weight_tile_index % tiles_per_row
                commands.append(
                    PIMCommand(
                        cmd_id=next_id(),
                        opcode=PIMOpcode.MAC,
                        gbuf_idx=tile,
                        out_idx=out_entry,
                        row=row,
                        col=col,
                    )
                )
            commands.append(
                PIMCommand(cmd_id=next_id(), opcode=PIMOpcode.RD_OUT, out_idx=out_entry)
            )
    return commands


def expand_program_to_commands(
    program: KernelProgram,
    caps: BufferCaps,
    tiles_per_row: int = 32,
    max_commands: int = 2_000_000,
) -> list[PIMCommand]:
    """Expand a phase-level kernel program into explicit commands.

    Buffer entries are assigned round-robin within each phase and DRAM rows
    advance with every ``tiles_per_row`` MAC commands, which matches the
    row-reuse mapping assumed by the program builders.

    Raises:
        ValueError: if the expansion would exceed ``max_commands`` (guards
            against accidentally expanding a 1M-token kernel).
    """
    total = program.n_wr_inp + program.n_mac + program.n_rd_out
    if total > max_commands:
        raise ValueError(
            f"program expands to {total} commands, above the limit of {max_commands}"
        )
    commands: list[PIMCommand] = []
    cmd_id = 0
    mac_counter = 0
    for segment in program.segments:
        for _ in range(segment.repeat):
            gbuf_cursor = 0
            out_cursor = 0
            for phase in segment.phases:
                for index in range(phase.count):
                    if phase.opcode is PIMOpcode.WR_INP:
                        entry = (gbuf_cursor + index) % caps.gbuf_entries
                        commands.append(
                            PIMCommand(cmd_id=cmd_id, opcode=PIMOpcode.WR_INP, gbuf_idx=entry)
                        )
                    elif phase.opcode is PIMOpcode.MAC:
                        entry = (gbuf_cursor + index) % caps.gbuf_entries
                        out_entry = out_cursor % caps.obuf_entries
                        row = mac_counter // tiles_per_row
                        col = mac_counter % tiles_per_row
                        mac_counter += 1
                        commands.append(
                            PIMCommand(
                                cmd_id=cmd_id,
                                opcode=PIMOpcode.MAC,
                                gbuf_idx=entry,
                                out_idx=out_entry,
                                row=row,
                                col=col,
                            )
                        )
                    else:
                        out_entry = out_cursor % caps.obuf_entries
                        commands.append(
                            PIMCommand(cmd_id=cmd_id, opcode=PIMOpcode.RD_OUT, out_idx=out_entry)
                        )
                    cmd_id += 1
                if phase.opcode is PIMOpcode.RD_OUT:
                    out_cursor += phase.count
    return commands


def lower_operator_to_instructions(
    operation: Operation,
    channel_mask: int,
    op_size: int,
    gbuf_base: int = 0,
    out_base: int = 0,
) -> list[PIMInstruction]:
    """Lower a matched IR matmul to a module-level instruction triple.

    The PIM HUB's instruction sequencer expands ``op_size`` repetitions into
    channel commands, so one ``WR-INP`` / ``MAC`` / ``RD-OUT`` triple with
    appropriate repetition counts describes an entire GEMV slice.
    """
    if operation.role not in ("qkt", "sv", "fc"):
        raise ValueError(f"operation {operation.name!r} is not PIM-amenable")
    if op_size < 1:
        raise ValueError("op_size must be >= 1")
    return [
        PIMInstruction(
            opcode=PIMOpcode.WR_INP,
            ch_mask=channel_mask,
            op_size=op_size,
            gpr_addr=0,
            gbuf_idx=gbuf_base,
        ),
        PIMInstruction(
            opcode=PIMOpcode.MAC,
            ch_mask=channel_mask,
            op_size=op_size,
            gbuf_idx=gbuf_base,
            out_idx=out_base,
            row=0,
            col=0,
        ),
        PIMInstruction(
            opcode=PIMOpcode.RD_OUT,
            ch_mask=channel_mask,
            op_size=max(1, op_size // 8),
            gpr_addr=0,
            out_idx=out_base,
        ),
    ]
