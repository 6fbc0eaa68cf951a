"""Property-based tests (hypothesis) on core data structures and invariants."""

from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dcs import DCSScheduler
from repro.core.partitioning import AttentionTask, TokenCentricPartitioner
from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.static_alloc import AllocationError
from repro.pim.config import PIMChannelConfig
from repro.pim.isa import PIMOpcode, mac, read_output, write_input
from repro.pim.kernels import (
    attention_head_cycles,
    attention_head_total_cycles,
    build_fc_gemv_program,
    build_sv_program,
    caps_for_policy,
    estimate_cycles,
    fc_gemv_breakdown,
    fc_gemv_cycles,
)
from repro.pim.scheduling import StaticScheduler
from repro.pim.timing import aimx_timing, illustrative_timing


# ---------------------------------------------------------------------------
# Partitioning invariants
# ---------------------------------------------------------------------------


@given(
    lengths=st.lists(st.integers(min_value=1, max_value=200_000), min_size=1, max_size=16),
    num_channels=st.sampled_from([4, 8, 16, 32]),
)
@settings(max_examples=50, deadline=None)
def test_tcp_conserves_tokens_and_balances(lengths, num_channels):
    tasks = [AttentionTask(request_id=i, kv_head=0, context_length=length)
             for i, length in enumerate(lengths)]
    assignment = TokenCentricPartitioner().partition(tasks, num_channels)
    loads = assignment.tokens_per_channel()
    assert sum(loads) == sum(lengths)
    # Each task contributes at most one extra token to any channel.
    assert max(loads) - min(loads) <= len(tasks)


# ---------------------------------------------------------------------------
# Allocator invariants
# ---------------------------------------------------------------------------


@given(
    token_counts=st.lists(st.integers(min_value=1, max_value=5_000), min_size=1, max_size=20),
)
@settings(max_examples=50, deadline=None)
def test_chunked_allocator_never_double_books(token_counts):
    allocator = ChunkedAllocator(
        capacity_bytes=64 * 1024 * 1024, bytes_per_token=512, chunk_bytes=256 * 1024
    )
    admitted = []
    for request_id, tokens in enumerate(token_counts):
        try:
            allocator.reserve(request_id, tokens)
            admitted.append(request_id)
        except AllocationError:
            break
    # No physical chunk is mapped twice across live requests.
    seen: set[int] = set()
    for request_id in admitted:
        for chunk in allocator.table.chunks_of(request_id):
            assert chunk not in seen
            seen.add(chunk)
    assert allocator.allocated_chunk_count == len(seen)
    assert 0.0 <= allocator.capacity_utilization <= 1.0
    # Releasing everything returns the allocator to its initial state.
    for request_id in admitted:
        allocator.release(request_id)
    assert allocator.allocated_chunk_count == 0
    assert allocator.free_chunk_count == allocator.total_chunks


# ---------------------------------------------------------------------------
# Scheduler invariants
# ---------------------------------------------------------------------------


def _random_gemv_stream(n_groups: int, n_inputs: int) -> list:
    """A well-formed small GEMV-like stream: writes, accumulate groups, drains."""
    commands = []
    cmd_id = 0
    for entry in range(n_inputs):
        commands.append(write_input(cmd_id, entry))
        cmd_id += 1
    for group in range(n_groups):
        out_entry = group % 4
        for entry in range(n_inputs):
            commands.append(mac(cmd_id, entry, out_entry, row=group // 4))
            cmd_id += 1
        commands.append(read_output(cmd_id, out_entry))
        cmd_id += 1
    return commands


@given(
    n_groups=st.integers(min_value=1, max_value=6),
    n_inputs=st.integers(min_value=1, max_value=8),
    timing=st.sampled_from(["fig7", "aimx"]),
)
@settings(max_examples=40, deadline=None)
def test_dcs_never_slower_than_static_and_respects_dependencies(n_groups, n_inputs, timing):
    timing_obj = illustrative_timing() if timing == "fig7" else aimx_timing()
    channel = PIMChannelConfig()
    commands = _random_gemv_stream(n_groups, n_inputs)
    static = StaticScheduler(timing_obj, channel).schedule(commands)
    dcs = DCSScheduler(timing_obj, channel).schedule(commands)
    assert dcs.makespan <= static.makespan
    # True dependencies: a MAC never starts before the write of its entry
    # completes, a drain never starts before its last producing MAC completes.
    times = {entry.command.cmd_id: entry for entry in dcs.scheduled}
    last_write: dict[int, int] = {}
    last_mac: dict[int, int] = {}
    for command in commands:
        if command.opcode is PIMOpcode.WR_INP:
            last_write[command.gbuf_idx] = command.cmd_id
        elif command.opcode is PIMOpcode.MAC:
            writer = last_write.get(command.gbuf_idx)
            if writer is not None:
                assert times[command.cmd_id].issue >= times[writer].complete
            last_mac[command.out_idx] = command.cmd_id
        else:
            producer = last_mac.get(command.out_idx)
            if producer is not None:
                assert times[command.cmd_id].issue >= times[producer].complete


# ---------------------------------------------------------------------------
# Kernel estimator invariants
# ---------------------------------------------------------------------------


@given(
    in_dim=st.integers(min_value=16, max_value=4096),
    out_dim=st.integers(min_value=16, max_value=4096),
)
@settings(max_examples=40, deadline=None)
def test_fc_program_counts_are_consistent(in_dim, out_dim):
    channel = PIMChannelConfig()
    caps = caps_for_policy(channel, "dcs")
    program = build_fc_gemv_program(in_dim, out_dim, channel, caps)
    n_in = -(-in_dim // 16)
    n_og = -(-out_dim // channel.num_banks)
    assert program.n_mac == n_in * n_og
    assert program.n_wr_inp >= n_in
    assert program.n_rd_out >= n_og
    assert program.row_activations >= 1


@given(
    tokens=st.integers(min_value=16, max_value=200_000),
    group=st.sampled_from([1, 2, 4, 8]),
    policy=st.sampled_from(["static", "pingpong", "dcs"]),
)
@settings(max_examples=40, deadline=None)
def test_cycle_breakdown_components_bound_total(tokens, group, policy):
    """Components account for the total: exactly when execution is serial
    (static scheduling has no overlap), and as an upper bound once pingpong
    or DCS overlap transfers with MACs."""
    channel = PIMChannelConfig()
    timing = aimx_timing()
    caps = caps_for_policy(channel, policy)
    program = build_sv_program(tokens, 128, channel, caps, group_size=group)
    breakdown = estimate_cycles(program, timing, policy)
    components = (
        breakdown.mac
        + breakdown.dt_gbuf
        + breakdown.dt_outreg
        + breakdown.act_pre
        + breakdown.refresh
        + breakdown.pipeline_penalty
    )
    for value in (
        breakdown.mac,
        breakdown.dt_gbuf,
        breakdown.dt_outreg,
        breakdown.act_pre,
        breakdown.refresh,
        breakdown.pipeline_penalty,
    ):
        assert value >= 0.0
    assert breakdown.io == breakdown.dt_gbuf + breakdown.dt_outreg
    if policy == "static":
        assert components == pytest.approx(breakdown.total, rel=1e-9)
    else:
        assert breakdown.total <= components * (1 + 1e-9)


@given(
    tokens=st.integers(min_value=16, max_value=50_000),
    alpha=st.floats(min_value=0.0, max_value=64.0, allow_nan=False),
    beta=st.floats(min_value=0.0, max_value=64.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_cycle_breakdown_scaled_is_linear(tokens, alpha, beta):
    """scaled() is linear: scaled(a) + scaled(b) == scaled(a + b), and
    addition is componentwise."""
    channel = PIMChannelConfig()
    timing = aimx_timing()
    caps = caps_for_policy(channel, "dcs")
    program = build_sv_program(tokens, 128, channel, caps, group_size=2)
    breakdown = estimate_cycles(program, timing, "dcs")
    split = breakdown.scaled(alpha) + breakdown.scaled(beta)
    joint = breakdown.scaled(alpha + beta)
    for attribute in ("mac", "dt_gbuf", "dt_outreg", "act_pre", "refresh",
                      "pipeline_penalty", "total"):
        assert getattr(split, attribute) == pytest.approx(
            getattr(joint, attribute), rel=1e-9, abs=1e-9
        )
    identity = breakdown.scaled(1.0)
    assert identity.total == pytest.approx(breakdown.total)


@given(
    n_groups=st.integers(min_value=1, max_value=6),
    n_inputs=st.integers(min_value=1, max_value=8),
    policy=st.sampled_from(["static", "dcs"]),
)
@settings(max_examples=40, deadline=None)
def test_schedule_issue_order_is_a_monotone_permutation(n_groups, n_inputs, policy):
    """issue_order() returns every command exactly once, in non-decreasing
    issue time with ties broken by program order (cmd_id)."""
    timing_obj = aimx_timing()
    channel = PIMChannelConfig()
    commands = _random_gemv_stream(n_groups, n_inputs)
    scheduler = (
        StaticScheduler(timing_obj, channel)
        if policy == "static"
        else DCSScheduler(timing_obj, channel)
    )
    result = scheduler.schedule(commands)
    order = result.issue_order()
    assert sorted(order) == sorted(command.cmd_id for command in commands)
    issue_of = {entry.command.cmd_id: entry.issue for entry in result.scheduled}
    for earlier, later in pairwise(order):
        assert issue_of[earlier] <= issue_of[later]
        if issue_of[earlier] == issue_of[later]:
            assert earlier < later
    # Every scheduled command occupies a non-negative interval within the
    # makespan.
    for entry in result.scheduled:
        assert 0 <= entry.issue <= entry.complete <= result.makespan


@given(
    tokens=st.integers(min_value=16, max_value=200_000),
    group=st.sampled_from([1, 2, 4, 8]),
    policy=st.sampled_from(["static", "pingpong", "dcs"]),
)
@settings(max_examples=40, deadline=None)
def test_estimates_are_positive_and_policy_ordered(tokens, group, policy):
    channel = PIMChannelConfig()
    timing = aimx_timing()
    caps = caps_for_policy(channel, policy)
    program = build_sv_program(tokens, 128, channel, caps, group_size=group)
    breakdown = estimate_cycles(program, timing, policy)
    assert breakdown.total > 0
    assert 0.0 <= breakdown.mac_utilization <= 1.0
    dcs = estimate_cycles(
        build_sv_program(tokens, 128, channel, caps_for_policy(channel, "dcs"), group_size=group),
        timing,
        "dcs",
    )
    assert dcs.total <= breakdown.total * 1.001


@given(
    shares=st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=8),
    head_dim=st.sampled_from([32, 64, 80, 128, 256]),
    num_banks=st.sampled_from([8, 16, 32]),
    gbuf_tiles=st.sampled_from([16, 32, 64, 100]),
    group=st.sampled_from([1, 2, 3, 4, 8]),
    policy=st.sampled_from(["static", "dcs"]),
    row_reuse=st.booleans(),
    timing=st.sampled_from([aimx_timing(), illustrative_timing()]),
)
@settings(max_examples=60, deadline=None)
def test_attention_closed_form_equals_program_path(
    shares, head_dim, num_banks, gbuf_tiles, group, policy, row_reuse, timing
):
    """The array closed form is the program-building estimator, bit for bit."""
    channel = PIMChannelConfig(num_banks=num_banks, gbuf_bytes=gbuf_tiles * 32)
    closed = attention_head_total_cycles(
        np.array(shares, dtype=np.int64), head_dim, channel, timing, policy, group, row_reuse
    )
    for tokens, value in zip(shares, closed.tolist(), strict=True):
        oracle = attention_head_cycles(tokens, head_dim, channel, timing, policy, group, row_reuse)
        assert value == oracle.total


@given(
    in_dim=st.integers(min_value=0, max_value=20_000),
    out_dim=st.integers(min_value=0, max_value=2_000),
    n_vectors=st.integers(min_value=0, max_value=64),
    num_banks=st.sampled_from([8, 16, 32]),
    gbuf_tiles=st.sampled_from([16, 32, 64, 100]),
    policy=st.sampled_from(["static", "dcs"]),
    row_reuse=st.booleans(),
    timing=st.sampled_from([aimx_timing(), illustrative_timing()]),
)
@settings(max_examples=60, deadline=None)
def test_fc_closed_form_equals_program_path(
    in_dim, out_dim, n_vectors, num_banks, gbuf_tiles, policy, row_reuse, timing
):
    """The FC closed form is the program-building estimator on every field."""
    channel = PIMChannelConfig(num_banks=num_banks, gbuf_bytes=gbuf_tiles * 32)
    args = (in_dim, out_dim, channel, timing, policy, n_vectors, row_reuse)
    assert fc_gemv_breakdown(*args) == fc_gemv_cycles(*args)
