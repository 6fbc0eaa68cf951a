"""Tests for phase-level kernel programs and the closed-form estimators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.lowering import lower_gemv_to_commands
from repro.core.dcs import DCSScheduler
from repro.dram.refresh import RefreshModel
from repro.pim import kernels
from repro.pim.config import (
    ELEMENTS_PER_TILE,
    cent_module_config,
    neupims_module_config,
)
from repro.pim.isa import PIMOpcode
from repro.pim.kernels import (
    EMPTY_PROGRAM,
    POLICIES,
    BufferCaps,
    KernelPhase,
    KernelProgram,
    KernelSegment,
    attention_head_cycles,
    attention_head_total_cycles,
    build_fc_gemv_program,
    build_qkt_program,
    build_sv_program,
    caps_for_policy,
    estimate_cycles,
    fc_gemv_breakdown,
    fc_gemv_cycles,
    qkt_cycles,
    sv_cycles,
)
from repro.pim.scheduling import StaticScheduler
from repro.pim.simulator import CycleBreakdown
from repro.pim.timing import aimx_timing, illustrative_timing


class TestCaps:
    def test_static_caps_use_small_outregs(self, channel):
        caps = caps_for_policy(channel, "static")
        assert caps.obuf_entries == channel.outreg_entries

    def test_dcs_caps_use_expanded_obuf(self, channel):
        caps = caps_for_policy(channel, "dcs")
        assert caps.obuf_entries == channel.obuf_entries

    def test_pingpong_caps_halved(self, channel):
        caps = caps_for_policy(channel, "pingpong")
        assert caps.gbuf_entries == channel.gbuf_entries // 2

    def test_unknown_policy_rejected(self, channel):
        with pytest.raises(ValueError):
            caps_for_policy(channel, "oracle")

    def test_invalid_caps_rejected(self):
        with pytest.raises(ValueError):
            BufferCaps(gbuf_entries=0, obuf_entries=1)


class TestProgramBuilders:
    def test_fc_command_counts_resident_inputs(self, channel):
        caps = caps_for_policy(channel, "dcs")
        program = build_fc_gemv_program(128, 256, channel, caps)
        # 8 input tiles written once, 16 output groups of 8 MACs + 1 drain.
        assert program.n_wr_inp == 8
        assert program.n_mac == 8 * 16
        assert program.n_rd_out == 16

    def test_fc_streaming_when_inputs_exceed_gbuf(self, channel):
        caps = caps_for_policy(channel, "dcs")
        program = build_fc_gemv_program(4096, 128, channel, caps)
        n_in = 4096 // 16
        assert program.n_wr_inp == n_in
        assert program.n_mac == n_in * (128 // channel.num_banks)
        # Partial sums drained once per block per output group.
        blocks = n_in // caps.gbuf_entries
        assert program.n_rd_out == blocks * (128 // channel.num_banks)

    def test_fc_vectors_scale_commands_but_not_activations(self, channel):
        caps = caps_for_policy(channel, "dcs")
        single = build_fc_gemv_program(256, 256, channel, caps, n_vectors=1)
        batched = build_fc_gemv_program(256, 256, channel, caps, n_vectors=4)
        assert batched.n_mac == 4 * single.n_mac
        assert batched.row_activations == single.row_activations

    def test_qkt_counts(self, channel):
        caps = caps_for_policy(channel, "dcs")
        program = build_qkt_program(1024, 128, channel, caps)
        groups = 1024 // channel.num_banks
        assert program.n_mac == 8 * groups
        assert program.n_rd_out == groups
        assert program.n_wr_inp == 8

    def test_qkt_gqa_row_reuse_shares_activations(self, channel):
        caps = caps_for_policy(channel, "dcs")
        reuse = build_qkt_program(4096, 128, channel, caps, group_size=4, row_reuse=True)
        no_reuse = build_qkt_program(4096, 128, channel, caps, group_size=4, row_reuse=False)
        assert no_reuse.row_activations == 4 * reuse.row_activations
        # Row reuse swaps inputs more often (the paper's DT-GBuf increase).
        assert reuse.n_wr_inp > build_qkt_program(
            4096, 128, channel, caps, group_size=4, row_reuse=False
        ).n_wr_inp / 4

    def test_sv_streams_scores(self, channel):
        caps = caps_for_policy(channel, "dcs")
        program = build_sv_program(8192, 128, channel, caps)
        n_in = 8192 // 16
        assert program.n_wr_inp == n_in
        assert program.n_mac == n_in * (128 // channel.num_banks)

    def test_empty_programs(self, channel):
        caps = caps_for_policy(channel, "dcs")
        assert build_qkt_program(0, 128, channel, caps).is_empty
        assert build_fc_gemv_program(0, 128, channel, caps) is EMPTY_PROGRAM

    def test_program_counts_by_opcode(self, channel):
        caps = caps_for_policy(channel, "dcs")
        program = build_fc_gemv_program(128, 128, channel, caps)
        assert program.count(PIMOpcode.WR_INP) == program.n_wr_inp
        assert program.n_io_tiles == program.n_wr_inp + program.n_rd_out


class TestEstimator:
    def test_policy_ordering_on_attention(self, channel, timing):
        for tokens in (2048, 8192):
            static = qkt_cycles(tokens, 128, channel, timing, "static")
            pingpong = qkt_cycles(tokens, 128, channel, timing, "pingpong")
            dcs = qkt_cycles(tokens, 128, channel, timing, "dcs")
            assert dcs.total <= pingpong.total <= static.total

    def test_dcs_speedup_larger_for_attention_than_fc(self, channel, timing):
        attention_speedup = (
            qkt_cycles(8192, 128, channel, timing, "static").total
            / qkt_cycles(8192, 128, channel, timing, "dcs").total
        )
        fc_speedup = (
            fc_gemv_cycles(4096, 4096, channel, timing, "static").total
            / fc_gemv_cycles(4096, 4096, channel, timing, "dcs").total
        )
        assert attention_speedup > fc_speedup

    def test_static_mac_utilization_drops_at_small_dims(self, channel, timing):
        """The Fig. 8 trend: small (attention-sized) GEMVs underutilise MACs."""
        small = fc_gemv_cycles(128, 128, channel, timing, "static").mac_utilization
        large = fc_gemv_cycles(4096, 4096, channel, timing, "static").mac_utilization
        assert small < 0.3
        assert large > 0.45
        assert large > 1.5 * small

    def test_estimates_scale_linearly_with_tokens(self, channel, timing):
        short = sv_cycles(4096, 128, channel, timing, "dcs").total
        long = sv_cycles(16384, 128, channel, timing, "dcs").total
        assert long == pytest.approx(4 * short, rel=0.15)

    def test_empty_program_estimates_zero(self, channel, timing):
        breakdown = estimate_cycles(EMPTY_PROGRAM, timing, "dcs")
        assert breakdown.total == 0.0

    def test_unknown_policy_rejected(self, channel, timing):
        program = build_qkt_program(256, 128, channel, caps_for_policy(channel, "dcs"))
        with pytest.raises(ValueError):
            estimate_cycles(program, timing, "magic")
        with pytest.raises(ValueError):
            estimate_cycles(EMPTY_PROGRAM, timing, "magic")

    def test_refresh_can_be_disabled(self, channel, timing):
        program = build_qkt_program(1024, 128, channel, caps_for_policy(channel, "dcs"))
        with_refresh = estimate_cycles(program, timing, "dcs")
        without = estimate_cycles(program, timing, "dcs", include_refresh=False)
        assert without.refresh == 0.0
        assert without.total < with_refresh.total


class TestEstimatorCrossValidation:
    """The closed-form estimators must track the exact command-level schedulers."""

    @pytest.mark.parametrize("in_dim,out_dim", [(128, 128), (256, 512), (1024, 256)])
    def test_static_estimate_matches_simulation(self, channel, timing, in_dim, out_dim):
        caps = caps_for_policy(channel, "static")
        program = build_fc_gemv_program(in_dim, out_dim, channel, caps)
        estimate = estimate_cycles(program, timing, "static")
        commands = lower_gemv_to_commands(in_dim, out_dim, channel, caps)
        exact = StaticScheduler(timing, channel).schedule(commands)
        assert estimate.total == pytest.approx(exact.breakdown.total, rel=0.15)

    @pytest.mark.parametrize("in_dim,out_dim", [(128, 128), (256, 512), (1024, 256)])
    def test_dcs_estimate_matches_simulation(self, channel, timing, in_dim, out_dim):
        caps = caps_for_policy(channel, "dcs")
        program = build_fc_gemv_program(in_dim, out_dim, channel, caps)
        estimate = estimate_cycles(program, timing, "dcs")
        commands = lower_gemv_to_commands(in_dim, out_dim, channel, caps)
        exact = DCSScheduler(timing, channel).schedule(commands)
        assert estimate.total == pytest.approx(exact.breakdown.total, rel=0.2)

    def test_command_counts_match_between_builder_and_lowering(self, channel):
        caps = caps_for_policy(channel, "dcs")
        for in_dim, out_dim in ((128, 128), (2048, 256)):
            program = build_fc_gemv_program(in_dim, out_dim, channel, caps)
            commands = lower_gemv_to_commands(in_dim, out_dim, channel, caps)
            wr = sum(1 for c in commands if c.opcode is PIMOpcode.WR_INP)
            mc = sum(1 for c in commands if c.opcode is PIMOpcode.MAC)
            rd = sum(1 for c in commands if c.opcode is PIMOpcode.RD_OUT)
            assert (program.n_wr_inp, program.n_mac, program.n_rd_out) == (wr, mc, rd)


def _boundary_tokens(channel, group_size, dense=1025):
    """Tokens 0..dense-1 plus both sides of every tiling boundary up to 2**20."""
    tokens = set(range(dense))
    sv_block = max(1, channel.gbuf_entries // group_size) * ELEMENTS_PER_TILE
    for unit in (channel.num_banks, ELEMENTS_PER_TILE, sv_block):
        multiple = unit
        while multiple <= 2**20:
            tokens.update((multiple - 1, multiple, multiple + 1))
            multiple *= 2
    tokens.add(2**20)
    return np.array(sorted(tokens), dtype=np.int64)


class TestAttentionHeadTotalCycles:
    """The array closed form must equal the program-building path exactly."""

    @pytest.mark.parametrize(
        "module", [cent_module_config(), neupims_module_config()], ids=["cent", "neupims"]
    )
    @pytest.mark.parametrize("policy", ["static", "dcs"])
    @pytest.mark.parametrize("group_size", [1, 2, 4, 8])
    @pytest.mark.parametrize("row_reuse", [True, False])
    @pytest.mark.parametrize("head_dim", [64, 128])
    def test_matches_program_oracle(self, module, policy, group_size, row_reuse, head_dim):
        tokens = _boundary_tokens(module.channel, group_size)
        closed = attention_head_total_cycles(
            tokens, head_dim, module.channel, module.timing, policy, group_size, row_reuse
        )
        assert closed.dtype == np.float64
        for count, value in zip(tokens.tolist(), closed.tolist(), strict=True):
            oracle = attention_head_cycles(
                count, head_dim, module.channel, module.timing, policy, group_size, row_reuse
            )
            assert value == oracle.total, count

    def test_keeps_the_shape_of_its_input(self, channel, timing):
        grid = np.arange(12, dtype=np.int64).reshape(3, 4) * 1000
        closed = attention_head_total_cycles(grid, 128, channel, timing, "dcs", 4)
        assert closed.shape == (3, 4)
        assert closed[0, 0] == 0.0
        assert closed[2, 3] == attention_head_cycles(11000, 128, channel, timing, "dcs", 4).total

    def test_pingpong_rejected(self, channel, timing):
        with pytest.raises(ValueError, match="pingpong"):
            attention_head_total_cycles(np.array([64]), 128, channel, timing, "pingpong")


def _boundary_dims(channel):
    """Dimensions on both sides of the first multiples of every tiling unit.

    The units are the input tile, the bank count (output groups) and the
    GBuf in tiles and in elements (where a resident input becomes a
    blocked stream).
    """
    dims = {1, 2}
    for unit in (ELEMENTS_PER_TILE, channel.num_banks, channel.gbuf_entries):
        for multiple in (unit, 2 * unit, 3 * unit):
            dims.update((multiple - 1, multiple, multiple + 1))
    resident = channel.gbuf_entries * ELEMENTS_PER_TILE
    for multiple in (resident, 2 * resident):
        dims.update((multiple - 1, multiple, multiple + 1))
    return sorted(dims)


_MODULES = pytest.mark.parametrize(
    "module", [cent_module_config(), neupims_module_config()], ids=["cent", "neupims"]
)


class TestFCGemvBreakdown:
    """The FC closed form must equal the program-building path on every field."""

    @_MODULES
    @pytest.mark.parametrize("policy", ["static", "dcs"])
    @pytest.mark.parametrize("row_reuse", [True, False])
    def test_matches_program_oracle_across_tiling_boundaries(self, module, policy, row_reuse):
        channel, timing = module.channel, module.timing
        dims = _boundary_dims(channel)
        for in_dim in dims:
            for out_dim in dims:
                for n_vectors in (1, 3, 64):
                    args = (in_dim, out_dim, channel, timing, policy, n_vectors, row_reuse)
                    assert fc_gemv_breakdown(*args) == fc_gemv_cycles(*args), args

    @_MODULES
    @pytest.mark.parametrize("policy", ["static", "dcs"])
    @pytest.mark.parametrize("row_reuse", [True, False])
    def test_matches_program_oracle_for_every_batch(self, module, policy, row_reuse):
        channel, timing = module.channel, module.timing
        resident = channel.gbuf_entries * ELEMENTS_PER_TILE
        shapes = [(17, 33), (resident, channel.num_banks), (resident + 1, 100), (4096, 512)]
        for in_dim, out_dim in shapes:
            for n_vectors in range(1, 65):
                args = (in_dim, out_dim, channel, timing, policy, n_vectors, row_reuse)
                assert fc_gemv_breakdown(*args) == fc_gemv_cycles(*args), args

    def test_empty_gemv_is_zero(self, channel, timing):
        for args in ((0, 64, 1), (64, 0, 1), (64, 64, 0)):
            in_dim, out_dim, n_vectors = args
            closed = fc_gemv_breakdown(in_dim, out_dim, channel, timing, "dcs", n_vectors)
            assert closed == fc_gemv_cycles(in_dim, out_dim, channel, timing, "dcs", n_vectors)
            assert closed.total == 0.0

    def test_pingpong_rejected(self, channel, timing):
        with pytest.raises(ValueError, match="pingpong"):
            fc_gemv_breakdown(64, 64, channel, timing, "pingpong")


# ---------------------------------------------------------------------------
# The one-pass estimator against the multi-pass reference
# ---------------------------------------------------------------------------


def _occupancy(timing, opcode):
    if opcode is PIMOpcode.WR_INP:
        return timing.wr_inp_occupancy
    if opcode is PIMOpcode.MAC:
        return timing.mac_occupancy
    return timing.rd_out_occupancy


def _latency(timing, opcode):
    if opcode is PIMOpcode.WR_INP:
        return timing.wr_inp_latency_cycles
    if opcode is PIMOpcode.MAC:
        return timing.mac_latency_cycles
    return timing.rd_out_latency_cycles


def _static_busy(program, timing):
    busy = 0.0
    for segment in program.segments:
        per_rep = 0.0
        for phase in segment.phases:
            if phase.count == 0:
                continue
            per_rep += (phase.count - 1) * _occupancy(timing, phase.opcode)
            per_rep += _latency(timing, phase.opcode)
        busy += per_rep * segment.repeat
    return busy


def _segment_io_mac(segment, timing):
    io = 0.0
    mac = 0.0
    for phase in segment.phases:
        cycles = phase.count * _occupancy(timing, phase.opcode)
        if phase.opcode is PIMOpcode.MAC:
            mac += cycles
        else:
            io += cycles
    return io, mac


def _fill_drain(timing):
    return timing.wr_inp_latency_cycles + timing.mac_latency_cycles + timing.rd_out_latency_cycles


def _dcs_busy(program, timing, act_cycles):
    io_total = 0.0
    mac_total = 0.0
    for segment in program.segments:
        io, mac = _segment_io_mac(segment, timing)
        io_total += io * segment.repeat
        mac_total += mac * segment.repeat
    return max(io_total, mac_total + act_cycles) + _fill_drain(timing)


def _pingpong_busy(program, timing, act_cycles, handoff_penalty):
    total_reps = sum(max(1, segment.repeat) for segment in program.segments)
    act_per_rep = act_cycles / total_reps if total_reps else 0.0
    busy = 0.0
    for segment in program.segments:
        io, mac = _segment_io_mac(segment, timing)
        per_rep = max(io, mac + act_per_rep) + handoff_penalty
        busy += per_rep * segment.repeat
    return busy + _fill_drain(timing)


def reference_estimate_cycles(program, timing, policy, include_refresh=True):
    """The multi-pass estimator ``estimate_cycles`` replaced, kept as its oracle.

    It rescans the program for every count (``is_empty``, ``n_mac``,
    ``n_wr_inp``, ``n_rd_out``) and again per policy, accumulating in
    floats.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if program.is_empty:
        return CycleBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mac_cycles = program.n_mac * timing.mac_occupancy
    dt_gbuf = program.n_wr_inp * timing.wr_inp_occupancy
    dt_outreg = program.n_rd_out * timing.rd_out_occupancy
    act_cycles = float(program.row_activations * timing.dram.row_switch_cycles)
    if policy == "static":
        busy = _static_busy(program, timing) + act_cycles
    elif policy == "dcs":
        busy = _dcs_busy(program, timing, act_cycles)
    else:
        handoff = float(timing.mac_latency_cycles + timing.rd_out_latency_cycles) / 2.0
        busy = _pingpong_busy(program, timing, act_cycles, handoff)
    refresh = 0.0
    if include_refresh:
        refresh = RefreshModel(timing.dram).refresh_cycles(busy)
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


_TIMINGS = [aimx_timing(), illustrative_timing(), cent_module_config().timing]

_PHASES = st.builds(
    KernelPhase,
    opcode=st.sampled_from(list(PIMOpcode)),
    count=st.one_of(st.just(0), st.integers(min_value=0, max_value=5_000)),
)
_SEGMENTS = st.builds(
    KernelSegment,
    phases=st.lists(_PHASES, max_size=7).map(tuple),
    repeat=st.one_of(st.just(0), st.integers(min_value=0, max_value=20_000)),
)
_PROGRAMS = st.one_of(
    st.just(EMPTY_PROGRAM),
    st.builds(
        KernelProgram,
        segments=st.lists(_SEGMENTS, max_size=5).map(tuple),
        row_activations=st.integers(min_value=0, max_value=100_000),
    ),
)


class TestOnePassEstimator:
    """``estimate_cycles`` equals the multi-pass reference on every field."""

    @given(
        program=_PROGRAMS,
        timing=st.sampled_from(_TIMINGS),
        policy=st.sampled_from(POLICIES),
        include_refresh=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_programs(self, program, timing, policy, include_refresh):
        expected = reference_estimate_cycles(program, timing, policy, include_refresh)
        assert estimate_cycles(program, timing, policy, include_refresh) == expected

    @pytest.mark.parametrize("include_refresh", [True, False])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_degenerate_programs(self, timing, policy, include_refresh):
        mac = KernelPhase(PIMOpcode.MAC, 3)
        programs = [
            EMPTY_PROGRAM,
            KernelProgram(segments=(), row_activations=5),
            KernelProgram(segments=(KernelSegment(()),), row_activations=5),
            KernelProgram(segments=(KernelSegment((mac,), repeat=0),), row_activations=5),
            KernelProgram(
                segments=(KernelSegment((KernelPhase(PIMOpcode.DYN_LOOP, 4),)),),
                row_activations=5,
            ),
            KernelProgram(
                segments=(KernelSegment((mac,), repeat=0), KernelSegment((mac,), repeat=2)),
                row_activations=7,
            ),
        ]
        for program in programs:
            expected = reference_estimate_cycles(program, timing, policy, include_refresh)
            assert estimate_cycles(program, timing, policy, include_refresh) == expected

    @_MODULES
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("group_size", [1, 2, 4, 8])
    @pytest.mark.parametrize("row_reuse", [True, False])
    @pytest.mark.parametrize("head_dim", [64, 128])
    def test_attention_builders(self, module, policy, group_size, row_reuse, head_dim):
        channel, timing = module.channel, module.timing
        caps = caps_for_policy(channel, policy)
        for tokens in _boundary_tokens(channel, group_size, dense=40).tolist():
            for build in (build_qkt_program, build_sv_program):
                program = build(tokens, head_dim, channel, caps, group_size, row_reuse)
                expected = reference_estimate_cycles(program, timing, policy)
                assert estimate_cycles(program, timing, policy) == expected, (build, tokens)

    @_MODULES
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fc_builder(self, module, policy):
        channel, timing = module.channel, module.timing
        caps = caps_for_policy(channel, policy)
        dims = _boundary_dims(channel)
        for in_dim in dims:
            for out_dim in dims[::3]:
                for n_vectors, row_reuse in ((1, True), (3, False), (16, True)):
                    program = build_fc_gemv_program(
                        in_dim, out_dim, channel, caps, n_vectors, row_reuse
                    )
                    expected = reference_estimate_cycles(program, timing, policy)
                    assert estimate_cycles(program, timing, policy) == expected, (in_dim, out_dim)

    def test_attention_head_cycles_estimates_each_kernel_once(self, channel, timing, monkeypatch):
        """Two module-level ``estimate_cycles`` calls per head, QK^T then SV."""
        calls = []
        original = kernels.estimate_cycles

        def counting(program, *args, **kwargs):
            calls.append(program.description)
            return original(program, *args, **kwargs)

        monkeypatch.setattr(kernels, "estimate_cycles", counting)
        combined = attention_head_cycles(3000, 128, channel, timing, "dcs", 4)
        assert calls == ["qkt(T=3000,g=4)", "sv(T=3000,g=4)"]
        qkt = qkt_cycles(3000, 128, channel, timing, "dcs", 4)
        sv = sv_cycles(3000, 128, channel, timing, "dcs", 4)
        assert combined == qkt + sv
