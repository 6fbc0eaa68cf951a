"""Kernel-level PIM latency models.

End-to-end evaluation (128K--1M token contexts, tens of layers, dozens of
requests) cannot schedule every individual ``MAC`` command, so this module
provides a *phase-level* representation of channel kernels
(:class:`KernelProgram`) and a closed-form cycle estimator for the three
scheduling policies (``static``, ``pingpong``, ``dcs``).
:func:`estimate_cycles` makes one pass over a program's phases, counting
commands and phases per segment in Python ints, and reads every policy's
busy time off those counts.  It follows the same timing rules as the exact
command-level schedulers and is cross-validated against them in the test
suite.

Three kernel builders cover the decode-step operators:

* :func:`build_fc_gemv_program` -- weight-stationary GEMV for FC layers.
* :func:`build_qkt_program` -- the ``QK^T`` attention score kernel.
* :func:`build_sv_program` -- the ``SV`` attention value kernel.

:func:`attention_head_total_cycles` prices the two attention kernels over a
whole array of token shares, and :func:`fc_gemv_breakdown` gives an FC GEMV's
full cycle breakdown, both without building programs; the builders above
stay their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.dram.refresh import RefreshModel
from repro.pim.config import ELEMENTS_PER_TILE, PIMChannelConfig
from repro.pim.isa import PIMOpcode
from repro.pim.simulator import CycleBreakdown
from repro.pim.timing import PIMTiming

#: Scheduling policies understood by the estimators.
POLICIES = ("static", "pingpong", "dcs")

#: Input-refetch factor applied when GQA row-reuse mapping shares KV rows
#: across the query group (paper Sec. V-C "Enabling KV Cache Reuse in GQA"):
#: inputs (queries / scores) are swapped into the GBuf more frequently.
GQA_ROW_REUSE_REFETCH = 2.0

_WR_INP, _MAC, _RD_OUT = PIMOpcode.WR_INP, PIMOpcode.MAC, PIMOpcode.RD_OUT


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class BufferCaps:
    """Effective buffer capacities available to a kernel mapping."""

    gbuf_entries: int
    obuf_entries: int

    def __post_init__(self) -> None:
        if self.gbuf_entries <= 0 or self.obuf_entries <= 0:
            raise ValueError("buffer capacities must be positive")


def caps_for_policy(channel: PIMChannelConfig, policy: str) -> BufferCaps:
    """Buffer capacities a mapping may assume under a scheduling policy.

    The static baseline only has the small Output Registers; PIMphony's
    I/O-aware buffering exposes the expanded Output Buffers.  Ping-pong
    buffering uses the same total capacity as DCS but each of its two
    regions is half-sized, which is what the mapping can rely on.
    """
    if policy == "static":
        return BufferCaps(channel.gbuf_entries, channel.outreg_entries)
    if policy == "pingpong":
        return BufferCaps(
            max(1, channel.gbuf_entries // 2), max(1, channel.obuf_entries // 2)
        )
    if policy == "dcs":
        return BufferCaps(channel.gbuf_entries, channel.obuf_entries)
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")


@dataclass(frozen=True)
class KernelPhase:
    """A run of identical-opcode commands within a kernel."""

    opcode: PIMOpcode
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("phase count must be non-negative")


@dataclass(frozen=True)
class KernelSegment:
    """A sequence of phases repeated a number of times."""

    phases: tuple[KernelPhase, ...]
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.repeat < 0:
            raise ValueError("segment repeat must be non-negative")

    def count(self, opcode: PIMOpcode) -> int:
        return self.repeat * sum(p.count for p in self.phases if p.opcode is opcode)


@dataclass(frozen=True)
class KernelProgram:
    """Phase-level description of one channel kernel.

    Attributes:
        segments: Ordered segments of the kernel.
        row_activations: Total DRAM row activations incurred (per bank, with
            banks operating in lock step).
        description: Human readable label.
    """

    segments: tuple[KernelSegment, ...]
    row_activations: int
    description: str = ""

    def count(self, opcode: PIMOpcode) -> int:
        return sum(segment.count(opcode) for segment in self.segments)

    @property
    def n_wr_inp(self) -> int:
        return self.count(PIMOpcode.WR_INP)

    @property
    def n_mac(self) -> int:
        return self.count(PIMOpcode.MAC)

    @property
    def n_rd_out(self) -> int:
        return self.count(PIMOpcode.RD_OUT)

    @property
    def n_io_tiles(self) -> int:
        """Total 32B tiles moved over the external interface."""
        return self.n_wr_inp + self.n_rd_out

    @property
    def is_empty(self) -> bool:
        return self.n_mac == 0 and self.n_io_tiles == 0

    def concatenated(self, other: KernelProgram) -> KernelProgram:
        """Concatenate two programs executed back to back."""
        return KernelProgram(
            segments=self.segments + other.segments,
            row_activations=self.row_activations + other.row_activations,
            description=f"{self.description}+{other.description}",
        )


EMPTY_PROGRAM = KernelProgram(segments=(), row_activations=0, description="empty")


# ---------------------------------------------------------------------------
# Program builders
# ---------------------------------------------------------------------------


#: One drain of the output registers; phases are immutable, so every
#: builder shares this one.
_DRAIN = KernelPhase(_RD_OUT, 1)


def _blocked_stream_segments(
    n_in_tiles: int,
    n_output_groups: int,
    block: int,
    repeat: int,
) -> tuple[KernelSegment, ...]:
    """Segments of an input-streamed GEMV with partial-sum drains per block.

    For every block of input tiles resident in the GBuf, the kernel performs
    the block's partial dot products for every output group and drains the
    partial sums; the PIM HUB's GPR/EPU accumulates partials across blocks.
    The whole stream runs ``repeat`` times (once per input vector or query).
    """
    if n_in_tiles == 0 or n_output_groups == 0:
        return ()
    block = max(1, block)
    n_full_blocks, remainder = divmod(n_in_tiles, block)
    segments: tuple[KernelSegment, ...] = ()
    if n_full_blocks:
        segments += (KernelSegment(_block_phases(block, n_output_groups), n_full_blocks * repeat),)
    if remainder:
        segments += (KernelSegment(_block_phases(remainder, n_output_groups), repeat),)
    return segments


def _block_phases(tiles: int, n_output_groups: int) -> tuple[KernelPhase, ...]:
    """One GBuf block: write ``tiles`` input tiles, then MAC and drain per output group."""
    return (KernelPhase(_WR_INP, tiles),) + (KernelPhase(_MAC, tiles), _DRAIN) * n_output_groups


def _resident_input_segments(
    n_in_tiles: int,
    n_output_groups: int,
    wr_count: int,
    repeat: int,
) -> tuple[KernelSegment, ...]:
    """Segments of a GEMV whose input tiles stay resident in the GBuf.

    The GEMV runs ``repeat`` times (once per input vector).
    """
    if n_in_tiles == 0 or n_output_groups == 0:
        return ()
    return (
        KernelSegment((KernelPhase(_WR_INP, wr_count),), repeat),
        KernelSegment((KernelPhase(_MAC, n_in_tiles), _DRAIN), n_output_groups * repeat),
    )


def build_fc_gemv_program(
    in_dim: int,
    out_dim: int,
    channel: PIMChannelConfig,
    caps: BufferCaps,
    n_vectors: int = 1,
    row_reuse: bool = True,
) -> KernelProgram:
    """Channel-level GEMV against weights resident in channel DRAM.

    Args:
        in_dim: Reduction dimension seen by this channel.
        out_dim: Output dimension produced by this channel.
        channel: Channel configuration (banks, buffer sizes).
        caps: Buffer capacities the mapping may rely on.
        n_vectors: Number of input vectors multiplied against the same
            weights (e.g. requests batched on an FC layer).
        row_reuse: Whether the mapping finishes all work on an open DRAM row
            before switching rows.
    """
    if in_dim <= 0 or out_dim <= 0 or n_vectors <= 0:
        return EMPTY_PROGRAM
    n_in = _ceil_div(in_dim, ELEMENTS_PER_TILE)
    n_og = _ceil_div(out_dim, channel.num_banks)

    if n_in <= caps.gbuf_entries:
        segments = _resident_input_segments(n_in, n_og, n_in, repeat=n_vectors)
    else:
        segments = _blocked_stream_segments(n_in, n_og, caps.gbuf_entries, repeat=n_vectors)

    weight_tiles_per_bank = n_in * n_og
    activations = _ceil_div(weight_tiles_per_bank, channel_tiles_per_row(channel))
    if not row_reuse:
        activations *= n_vectors
    return KernelProgram(
        segments=segments,
        row_activations=activations,
        description=f"fc_gemv({in_dim}x{out_dim},v={n_vectors})",
    )


def build_qkt_program(
    tokens: int,
    head_dim: int,
    channel: PIMChannelConfig,
    caps: BufferCaps,
    group_size: int = 1,
    row_reuse: bool = True,
) -> KernelProgram:
    """``QK^T`` kernel: score the channel's resident keys against queries.

    ``tokens`` keys (each ``head_dim`` wide) are resident in the channel; the
    ``group_size`` query vectors of a GQA group are streamed in and every
    key/query pair produces one score.
    """
    if tokens <= 0 or group_size <= 0:
        return EMPTY_PROGRAM
    n_in = _ceil_div(head_dim, ELEMENTS_PER_TILE)
    n_og = _ceil_div(tokens, channel.num_banks)

    wr_count = n_in * group_size
    if row_reuse and group_size > 1:
        wr_count = int(math.ceil(wr_count * GQA_ROW_REUSE_REFETCH))

    segments = (
        KernelSegment((KernelPhase(_WR_INP, wr_count),)),
        KernelSegment((KernelPhase(_MAC, n_in), _DRAIN), repeat=n_og * group_size),
    )

    key_tiles_per_bank = n_og * n_in
    activations = _ceil_div(key_tiles_per_bank, channel_tiles_per_row(channel))
    if not row_reuse:
        activations *= group_size
    return KernelProgram(
        segments=segments,
        row_activations=activations,
        description=f"qkt(T={tokens},g={group_size})",
    )


def build_sv_program(
    tokens: int,
    head_dim: int,
    channel: PIMChannelConfig,
    caps: BufferCaps,
    group_size: int = 1,
    row_reuse: bool = True,
) -> KernelProgram:
    """``SV`` kernel: weight the channel's resident values by scores.

    Scores (``tokens`` per query) are streamed through the GBuf in blocks;
    per block the partial outputs for every head dimension group are drained
    and reduced in the PIM HUB (and, under TCP, across channels).
    """
    if tokens <= 0 or group_size <= 0:
        return EMPTY_PROGRAM
    n_in = _ceil_div(tokens, ELEMENTS_PER_TILE)
    n_og = _ceil_div(head_dim, channel.num_banks)

    block = caps.gbuf_entries
    refetch = 1.0
    if row_reuse and group_size > 1:
        block = max(1, block // group_size)
        refetch = GQA_ROW_REUSE_REFETCH

    segments = _blocked_stream_segments(n_in, n_og, block, repeat=group_size)
    if refetch > 1.0:
        extra_wr = int((refetch - 1.0) * n_in * group_size)
        if extra_wr > 0:
            segments += (KernelSegment((KernelPhase(_WR_INP, extra_wr),)),)

    value_tiles_per_bank = n_in * n_og
    activations = _ceil_div(value_tiles_per_bank, channel_tiles_per_row(channel))
    if not row_reuse:
        activations *= group_size
    return KernelProgram(
        segments=segments,
        row_activations=activations,
        description=f"sv(T={tokens},g={group_size})",
    )


def channel_tiles_per_row(channel: PIMChannelConfig) -> int:
    """Tiles held by one open DRAM row, derived from the default row size."""
    # Row geometry lives in DRAMTiming; kernels only need the default ratio.
    return 1024 // 32


# ---------------------------------------------------------------------------
# Closed-form cycle estimators
# ---------------------------------------------------------------------------


def estimate_cycles(
    program: KernelProgram,
    timing: PIMTiming,
    policy: str,
    include_refresh: bool = True,
) -> CycleBreakdown:
    """Estimate the cycle breakdown of a kernel program under a policy.

    One pass over the program's phases counts, per segment, the
    ``WR_INP``/``MAC``/``RD_OUT`` commands and the phases that issue them,
    in Python ints (control opcodes occupy the bus like ``RD_OUT`` but
    move no data).  The three policies are then read off those counts:

    * ``static`` serialises every phase: a phase of ``k`` commands takes
      ``(k - 1) * occupancy + latency`` cycles, and row switches add on.
    * ``dcs`` overlaps the I/O and MAC streams of the whole kernel:
      ``max(io, mac + act) + fill_drain``.
    * ``pingpong`` overlaps them within each segment repetition only, and
      every repetition pays a region hand-off; row switches are spread
      evenly over the repetitions.

    Every static and DCS busy term is an integer (exactly representable
    below 2**53), so it is converted to float once.  Ping-pong's per
    repetition activation share is fractional; its busy time is a left
    fold over the segments in program order.  Refresh and the pipeline
    penalty are float expressions of the busy time.

    Args:
        program: Phase-level kernel description.
        timing: Channel timing parameters.
        policy: ``"static"``, ``"pingpong"`` or ``"dcs"``.
        include_refresh: Whether to add rate-based refresh overhead.

    Returns:
        A :class:`CycleBreakdown` whose ``total`` is the estimated end-to-end
        latency of the kernel on one channel.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    occ_wr, occ_mac, occ_rd = timing.wr_inp_occupancy, timing.mac_occupancy, timing.rd_out_occupancy
    lat_wr, lat_mac, lat_rd = (
        timing.wr_inp_latency_cycles,
        timing.mac_latency_cycles,
        timing.rd_out_latency_cycles,
    )
    n_wr = n_mac = n_rd = 0
    io = serial = 0
    # (repeat, I/O cycles, MAC cycles) of one repetition of each segment.
    streams: list[tuple[int, int, int]] = []
    for segment in program.segments:
        wr = mac = rd = other = 0
        wr_phases = mac_phases = rd_phases = 0
        for phase in segment.phases:
            count = phase.count
            if not count:
                continue
            opcode = phase.opcode
            if opcode is _MAC:
                mac += count
                mac_phases += 1
            elif opcode is _WR_INP:
                wr += count
                wr_phases += 1
            else:
                if opcode is _RD_OUT:
                    rd += count
                else:
                    other += count
                rd_phases += 1
        repeat = segment.repeat
        rep_io = wr * occ_wr + (rd + other) * occ_rd
        rep_mac = mac * occ_mac
        rep_serial = (
            rep_io
            + rep_mac
            + wr_phases * (lat_wr - occ_wr)
            + mac_phases * (lat_mac - occ_mac)
            + rd_phases * (lat_rd - occ_rd)
        )
        n_wr += repeat * wr
        n_mac += repeat * mac
        n_rd += repeat * rd
        io += repeat * rep_io
        serial += repeat * rep_serial
        streams.append((repeat, rep_io, rep_mac))
    if n_mac == 0 and n_wr == 0 and n_rd == 0:
        return CycleBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    mac_cycles = n_mac * occ_mac
    dt_gbuf = n_wr * occ_wr
    dt_outreg = n_rd * occ_rd
    act = program.row_activations * timing.dram.row_switch_cycles
    act_cycles = float(act)
    fill_drain = lat_wr + lat_mac + lat_rd

    if policy == "static":
        busy = float(serial + act)
    elif policy == "dcs":
        busy = float(max(io, mac_cycles + act) + fill_drain)
    else:
        # Every region swap drains both regions, so each segment repetition
        # pays max(io, mac) plus a hand-off penalty.
        handoff = float(lat_mac + lat_rd) / 2.0
        act_per_rep = act_cycles / sum(max(1, repeat) for repeat, _, _ in streams)
        busy = 0.0
        for repeat, rep_io, rep_mac in streams:
            busy += (max(rep_io, rep_mac + act_per_rep) + handoff) * repeat
        busy += fill_drain

    refresh = busy * RefreshModel(timing.dram).overhead_fraction if include_refresh else 0.0
    total = busy + refresh
    penalty = total - (mac_cycles + dt_gbuf + dt_outreg + act_cycles + refresh)
    return CycleBreakdown(
        mac=float(mac_cycles),
        dt_gbuf=float(dt_gbuf),
        dt_outreg=float(dt_outreg),
        act_pre=act_cycles,
        refresh=refresh,
        pipeline_penalty=max(0.0, penalty),
        total=total,
    )


def fc_gemv_cycles(
    in_dim: int,
    out_dim: int,
    channel: PIMChannelConfig,
    timing: PIMTiming,
    policy: str,
    n_vectors: int = 1,
    row_reuse: bool = True,
) -> CycleBreakdown:
    """Latency of an FC GEMV slice on one channel under ``policy``."""
    caps = caps_for_policy(channel, policy)
    program = build_fc_gemv_program(in_dim, out_dim, channel, caps, n_vectors, row_reuse)
    return estimate_cycles(program, timing, policy)


def fc_gemv_breakdown(
    in_dim: int,
    out_dim: int,
    channel: PIMChannelConfig,
    timing: PIMTiming,
    policy: str,
    n_vectors: int = 1,
    row_reuse: bool = True,
) -> CycleBreakdown:
    """:func:`fc_gemv_cycles` without building the program.

    Counts the commands and row activations of :func:`build_fc_gemv_program`
    in closed form, in Python ints.  Every busy-cycle term is an exact
    integer below 2**53, which :func:`estimate_cycles`' float accumulation
    also reaches exactly; refresh and the pipeline penalty then follow its
    float expressions verbatim.  Covers the ``static`` and ``dcs`` policies.
    """
    if policy not in ("static", "dcs"):
        raise ValueError(f"closed form covers 'static' and 'dcs', not {policy!r}")
    if in_dim <= 0 or out_dim <= 0 or n_vectors <= 0:
        return CycleBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    occ_wr, occ_mac, occ_rd = timing.wr_inp_occupancy, timing.mac_occupancy, timing.rd_out_occupancy
    lat_wr, lat_mac, lat_rd = (
        timing.wr_inp_latency_cycles,
        timing.mac_latency_cycles,
        timing.rd_out_latency_cycles,
    )
    n_in = _ceil_div(in_dim, ELEMENTS_PER_TILE)
    n_og = _ceil_div(out_dim, channel.num_banks)
    # Per vector, the input tiles pass through the GBuf (which both policies
    # map in full) in n_blocks blocks, one when they all fit.  Each block is
    # one WR_INP phase followed by (MAC, RD_OUT 1) per output group.
    n_blocks = _ceil_div(n_in, channel.gbuf_entries)
    activations = _ceil_div(n_in * n_og, channel_tiles_per_row(channel))
    if not row_reuse:
        activations *= n_vectors
    act = activations * timing.dram.row_switch_cycles

    n_wr = n_vectors * n_in
    n_mac = n_wr * n_og
    n_rd = n_vectors * n_og * n_blocks
    if policy == "static":
        # Phases serialise: a phase of k commands takes (k - 1) * occupancy
        # + latency cycles, so each block adds the latency-minus-occupancy
        # terms once and each tile its occupancies.
        per_tile = occ_wr + n_og * occ_mac
        per_block = lat_wr - occ_wr + n_og * (lat_mac - occ_mac + lat_rd)
        busy_cycles = n_vectors * (n_in * per_tile + n_blocks * per_block) + act
    else:
        fill_drain = lat_wr + lat_mac + lat_rd
        busy_cycles = max(n_wr * occ_wr + n_rd * occ_rd, n_mac * occ_mac + act) + fill_drain

    mac_cycles = n_mac * occ_mac
    dt_gbuf = n_wr * occ_wr
    dt_outreg = n_rd * occ_rd
    act_cycles = float(act)
    busy = float(busy_cycles)
    refresh = busy * RefreshModel(timing.dram).overhead_fraction
    total = busy + refresh
    penalty = total - (mac_cycles + dt_gbuf + dt_outreg + act_cycles + refresh)
    return CycleBreakdown(
        mac=float(mac_cycles),
        dt_gbuf=float(dt_gbuf),
        dt_outreg=float(dt_outreg),
        act_pre=act_cycles,
        refresh=refresh,
        pipeline_penalty=max(0.0, penalty),
        total=total,
    )


def qkt_cycles(
    tokens: int,
    head_dim: int,
    channel: PIMChannelConfig,
    timing: PIMTiming,
    policy: str,
    group_size: int = 1,
    row_reuse: bool = True,
) -> CycleBreakdown:
    """Latency of a ``QK^T`` slice (per KV head) on one channel."""
    caps = caps_for_policy(channel, policy)
    program = build_qkt_program(tokens, head_dim, channel, caps, group_size, row_reuse)
    return estimate_cycles(program, timing, policy)


def sv_cycles(
    tokens: int,
    head_dim: int,
    channel: PIMChannelConfig,
    timing: PIMTiming,
    policy: str,
    group_size: int = 1,
    row_reuse: bool = True,
) -> CycleBreakdown:
    """Latency of an ``SV`` slice (per KV head) on one channel."""
    caps = caps_for_policy(channel, policy)
    program = build_sv_program(tokens, head_dim, channel, caps, group_size, row_reuse)
    return estimate_cycles(program, timing, policy)


def attention_head_cycles(
    tokens: int,
    head_dim: int,
    channel: PIMChannelConfig,
    timing: PIMTiming,
    policy: str,
    group_size: int = 1,
    row_reuse: bool = True,
) -> CycleBreakdown:
    """Combined ``QK^T`` + ``SV`` latency for one KV head's token slice.

    Equals ``qkt_cycles(...) + sv_cycles(...)``; both kernels map onto the
    same buffer capacities.
    """
    caps = caps_for_policy(channel, policy)
    qkt = build_qkt_program(tokens, head_dim, channel, caps, group_size, row_reuse)
    sv = build_sv_program(tokens, head_dim, channel, caps, group_size, row_reuse)
    return estimate_cycles(qkt, timing, policy) + estimate_cycles(sv, timing, policy)


def attention_head_total_cycles(
    tokens: NDArray[np.int64],
    head_dim: int,
    channel: PIMChannelConfig,
    timing: PIMTiming,
    policy: str,
    group_size: int = 1,
    row_reuse: bool = True,
) -> NDArray[np.float64]:
    """:func:`attention_head_cycles` ``.total`` for an array of token slices.

    Counts the commands and row activations of :func:`build_qkt_program`
    and :func:`build_sv_program` in closed form, in int64, for every
    element of ``tokens`` (any shape).  Every busy-cycle term is an exact
    integer below 2**53, so one conversion to float64 reproduces
    :func:`estimate_cycles`' float accumulation exactly; refresh is then
    added per kernel as ``busy + busy * overhead_fraction``, ``QK^T``
    before ``SV``, as the :class:`CycleBreakdown` sum does.  Covers the
    ``static`` and ``dcs`` policies.
    """
    if policy not in ("static", "dcs"):
        raise ValueError(f"closed form covers 'static' and 'dcs', not {policy!r}")
    tokens = np.asarray(tokens, dtype=np.int64)
    if group_size <= 0:
        return np.zeros(tokens.shape, dtype=np.float64)
    occ_wr, occ_mac, occ_rd = timing.wr_inp_occupancy, timing.mac_occupancy, timing.rd_out_occupancy
    lat_wr, lat_mac, lat_rd = (
        timing.wr_inp_latency_cycles,
        timing.mac_latency_cycles,
        timing.rd_out_latency_cycles,
    )
    fill_drain = lat_wr + lat_mac + lat_rd
    tiles_per_row = channel_tiles_per_row(channel)
    reuse = row_reuse and group_size > 1
    # Without row reuse every query of the group re-opens every row.
    switch = (1 if row_reuse else group_size) * timing.dram.row_switch_cycles

    # QK^T: one WR_INP phase of q_wr tiles, then g * q_og repetitions of
    # (MAC q_in, RD_OUT 1).
    q_in = _ceil_div(head_dim, ELEMENTS_PER_TILE)
    q_wr = q_in * group_size
    if reuse:
        q_wr = int(math.ceil(q_wr * GQA_ROW_REUSE_REFETCH))
    q_og = (tokens + (channel.num_banks - 1)) // channel.num_banks
    q_act = (q_og * q_in + (tiles_per_row - 1)) // tiles_per_row * switch
    if policy == "static":
        q_rep = group_size * ((q_in - 1) * occ_mac + lat_mac + lat_rd)
        q_busy = q_og * q_rep + q_act + ((q_wr - 1) * occ_wr + lat_wr)
    else:
        q_io = q_og * (group_size * occ_rd) + q_wr * occ_wr
        q_busy = np.maximum(q_io, q_og * (group_size * q_in * occ_mac) + q_act) + fill_drain

    # SV: per query, s_in score tiles stream through the GBuf in blocks of
    # ``block`` tiles (the last one partial); each block is one WR_INP phase
    # followed by (MAC, RD_OUT 1) per output group.  GQA row reuse shrinks
    # the block and adds one refetch WR_INP phase of refetch_wr tiles per
    # score tile.
    s_og = _ceil_div(head_dim, channel.num_banks)
    block = caps_for_policy(channel, policy).gbuf_entries
    refetch_wr = 0
    if reuse:
        block = max(1, block // group_size)
        refetch_wr = int(GQA_ROW_REUSE_REFETCH - 1.0) * group_size
    s_in = (tokens + (ELEMENTS_PER_TILE - 1)) // ELEMENTS_PER_TILE
    s_act = (s_in * s_og + (tiles_per_row - 1)) // tiles_per_row * switch
    if policy == "static":
        full, rem = np.divmod(s_in, block)
        full_rep = (block - 1) * occ_wr + lat_wr + s_og * ((block - 1) * occ_mac + lat_mac + lat_rd)
        rem_rep = rem * (occ_wr + s_og * occ_mac) + (
            lat_wr - occ_wr + s_og * (lat_mac - occ_mac + lat_rd)
        )
        s_busy = group_size * (full * full_rep + np.where(rem > 0, rem_rep, 0)) + s_act
        if refetch_wr:
            s_busy += (s_in * refetch_wr - 1) * occ_wr + lat_wr
    else:
        blocks = (s_in + (block - 1)) // block
        s_io = blocks * (group_size * s_og * occ_rd) + s_in * ((group_size + refetch_wr) * occ_wr)
        s_busy = np.maximum(s_io, s_in * (group_size * s_og * occ_mac) + s_act) + fill_drain

    refresh_fraction = RefreshModel(timing.dram).overhead_fraction
    qkt = q_busy.astype(np.float64)
    sv = s_busy.astype(np.float64)
    total = (qkt + qkt * refresh_fraction) + (sv + sv * refresh_fraction)
    return np.where(tokens > 0, total, 0.0)
