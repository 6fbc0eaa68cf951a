"""Per-module decode-step timing of attention and FC layers on PIM.

These helpers aggregate the channel-level kernel estimators of
``repro.pim.kernels`` into module-level times, applying the intra-module
partitioning strategy (HFP vs TCP) for attention.  FC layers are priced in
closed form (:func:`~repro.pim.kernels.fc_gemv_breakdown`), and so are TCP
attention totals over arrays of shares (:func:`tcp_attention_cycles`).
Attention cycle breakdowns still come from the program-building estimator
(:func:`~repro.pim.kernels.attention_head_cycles`, which builds the QK^T
and SV programs and prices each in one pass over its phases): once per
distinct token slice in a call under HFP, and under TCP once per distinct
per-channel share per system.  :class:`TCPSharePrices` keeps a system's
TCP prices by share: attention totals and one-request stage seconds and
busy products in tables, and breakdowns in a bounded dict.  TCP's
per-module SV partial-sum reduction is not modelled; the paper puts it
below 0.2%.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.core.orchestrator import PIMphonyConfig
from repro.pim.config import PIMModuleConfig
from repro.pim.kernels import (
    attention_head_cycles,
    attention_head_total_cycles,
    fc_gemv_breakdown,
)
from repro.pim.simulator import CycleBreakdown, ZERO_BREAKDOWN, breakdown_fields

if TYPE_CHECKING:
    from repro.system.pipeline import StageTime

#: (attention, seconds, busy) prices indexed by per-channel share: the
#: share tables as lists, or a dict of the shares priced past them.
ShareTables = tuple[
    list[float] | Mapping[int, float],
    list[float] | Mapping[int, float],
    list[float] | Mapping[int, float],
]


def _policy_of(config: PIMphonyConfig) -> str:
    return "dcs" if config.dcs else "static"


def module_attention_time(
    context_lengths: Sequence[int],
    kv_heads_per_module: int,
    group_size: int,
    head_dim: int,
    module: PIMModuleConfig,
    config: PIMphonyConfig,
) -> tuple[float, float, CycleBreakdown]:
    """Attention time of one layer on one module for a batch of requests.

    Returns:
        ``(module_cycles, channel_utilization, aggregate_breakdown)`` where
        ``module_cycles`` is the time of the slowest channel and the
        aggregate breakdown sums all channels' busy components (for energy).
    """
    active = [length for length in context_lengths if length > 0]
    if not active or kv_heads_per_module <= 0:
        return 0.0, 0.0, ZERO_BREAKDOWN

    num_channels = module.num_channels
    if config.tcp:
        # Every channel processes an equal token share of every task; the
        # per-channel time is identical across channels by construction.
        shares = [-(-length // num_channels) for length in active]
        per_channel = ZERO_BREAKDOWN
        for term in tcp_attention_breakdowns(
            shares, kv_heads_per_module, group_size, head_dim, module, config
        ):
            per_channel = per_channel + term
        module_cycles = per_channel.total
        utilization = 1.0 if module_cycles > 0 else 0.0
        aggregate = per_channel.scaled(num_channels)
        return module_cycles, utilization, aggregate

    # HFP: whole (request, KV head) tasks are placed on the least loaded
    # channel; the module finishes with its slowest channel.
    head_cycles = _head_cycles(active, group_size, head_dim, module, config)
    channel_cycles = [0.0] * num_channels
    aggregate = ZERO_BREAKDOWN
    tasks: list[int] = []
    for length in active:
        tasks.extend([length] * kv_heads_per_module)
    tasks.sort(reverse=True)
    for length in tasks:
        breakdown = head_cycles[length]
        target = min(range(num_channels), key=lambda index: channel_cycles[index])
        channel_cycles[target] += breakdown.total
        aggregate = aggregate + breakdown
    module_cycles = max(channel_cycles)
    if module_cycles > 0:
        utilization = sum(channel_cycles) / (num_channels * module_cycles)
    else:
        utilization = 0.0
    return module_cycles, utilization, aggregate


def _head_cycles(
    tokens: Sequence[int],
    group_size: int,
    head_dim: int,
    module: PIMModuleConfig,
    config: PIMphonyConfig,
) -> dict[int, CycleBreakdown]:
    """:func:`attention_head_cycles` of every distinct token slice, priced once."""
    policy = _policy_of(config)
    return {
        count: attention_head_cycles(
            tokens=count,
            head_dim=head_dim,
            channel=module.channel,
            timing=module.timing,
            policy=policy,
            group_size=group_size,
            row_reuse=config.row_reuse,
        )
        for count in dict.fromkeys(tokens)
    }


def tcp_attention_breakdowns(
    shares: Sequence[int],
    kv_heads_per_module: int,
    group_size: int,
    head_dim: int,
    module: PIMModuleConfig,
    config: PIMphonyConfig,
) -> list[CycleBreakdown]:
    """Each request's per-channel term of :func:`module_attention_time`'s TCP sum.

    The breakdown counterpart of :func:`tcp_attention_cycles`: each term's
    ``total`` is that function's value for its share, and folding the terms
    in batch order gives the TCP per-channel breakdown, both bit for bit.
    Every distinct share is priced once.
    """
    head_cycles = _head_cycles(shares, group_size, head_dim, module, config)
    return [head_cycles[share].scaled(kv_heads_per_module) for share in shares]


def tcp_attention_cycles(
    shares: NDArray[np.int64],
    kv_heads_per_module: int,
    group_size: int,
    head_dim: int,
    module: PIMModuleConfig,
    config: PIMphonyConfig,
) -> NDArray[np.float64]:
    """Each request's term of :func:`module_attention_time`'s TCP sum.

    ``shares`` holds per-channel token shares (``ceil(context /
    num_channels)``) of any shape; folding the result over requests in
    batch order gives the TCP module cycles bit for bit.
    """
    per_head = attention_head_total_cycles(
        shares,
        head_dim=head_dim,
        channel=module.channel,
        timing=module.timing,
        policy=_policy_of(config),
        group_size=group_size,
        row_reuse=config.row_reuse,
    )
    return per_head * kv_heads_per_module


class TCPSharePrices:
    """One system's TCP prices of every per-channel share, each share priced once.

    Under TCP a request's attention cost depends only on its per-channel
    share, so a system keeps three tables over the shares its context
    window admits (``0..n_shares-1``), built together on first use:

    * ``attention``: :func:`tcp_attention_cycles` of the share;
    * ``seconds``: the stage seconds of a one-request micro-batch at that
      share, the owning system's ``stage_time(attention, 1.0, 1)``;
    * ``busy``: those seconds times the stage's PIM utilization.

    ``stage_time`` is applied elementwise to the whole attention table, so
    every entry equals the system's per-call value bit for bit.  The
    :func:`tcp_attention_breakdowns` term of every share it has priced is
    kept in a dict, as the tuple of its fields (:data:`breakdown_fields`).
    A share past the window is priced but not stored, so no table or dict
    holds more than ``n_shares`` entries.
    """

    def __init__(
        self,
        kv_heads_per_module: int,
        group_size: int,
        head_dim: int,
        module: PIMModuleConfig,
        config: PIMphonyConfig,
        max_context_tokens: int,
        stage_time: StageTime,
    ) -> None:
        self._pricing = (kv_heads_per_module, group_size, head_dim, module, config)
        self.num_channels = module.num_channels
        self.n_shares = -(-max_context_tokens // module.num_channels) + 1
        self.stage_time: StageTime = stage_time
        self._arrays: tuple[NDArray[np.float64], ...] | None = None
        self._lists: ShareTables = ([], [], [])
        self._terms: dict[int, tuple[float, ...]] = {}

    def _price(self, shares: NDArray[np.int64]) -> tuple[NDArray[np.float64], ...]:
        """The three table columns of ``shares``, priced directly."""
        attention = tcp_attention_cycles(shares, *self._pricing)
        seconds, utilization = self.stage_time(attention, 1.0, 1)
        return attention, np.asarray(seconds), np.asarray(seconds * utilization)

    def _tables(self) -> tuple[NDArray[np.float64], ...]:
        if self._arrays is None:
            self._arrays = self._price(np.arange(self.n_shares, dtype=np.int64))
            attention, seconds, busy = (table.tolist() for table in self._arrays)
            self._lists = attention, seconds, busy
        return self._arrays

    def grid(self, shares: NDArray[np.int64]) -> tuple[NDArray[np.float64], ...]:
        """(attention, seconds, busy) of non-negative ``shares`` (any shape)."""
        tables = self._tables()
        try:
            return tuple(table[shares] for table in tables)
        except IndexError:  # a share past the window: price the grid directly
            return self._price(shares)

    def tables(self, shares: Sequence[int]) -> ShareTables:
        """The (attention, seconds, busy) tables to read non-negative ``shares`` from.

        These are the share tables, as lists, when every share is in the
        window, and otherwise dicts of exactly ``shares`` priced directly.
        """
        self._tables()
        if max(shares) < self.n_shares:
            return self._lists
        attention, seconds, busy = (
            dict(zip(shares, table.tolist(), strict=True))
            for table in self._price(np.array(shares, dtype=np.int64))
        )
        return attention, seconds, busy

    def terms(self, shares: Sequence[int]) -> list[tuple[float, ...]]:
        """:func:`tcp_attention_breakdowns` of ``shares`` as field tuples.

        Each new share is priced once; a share past the window is priced
        but not stored.
        """
        terms = self._terms
        try:
            return [terms[share] for share in shares]
        except KeyError:
            pass
        missing = [share for share in dict.fromkeys(shares) if share not in terms]
        priced = {
            share: breakdown_fields(term)
            for share, term in zip(
                missing, tcp_attention_breakdowns(missing, *self._pricing), strict=True
            )
        }
        terms.update((share, term) for share, term in priced.items() if share < self.n_shares)
        return [terms[share] if share in terms else priced[share] for share in shares]


#: FC matrices of one decoder layer as (in_dim multiplier, out_dim multiplier)
#: pairs over (d_model, kv_dim, ffn_dim); resolved per model below.
def _layer_fc_shapes(
    d_model: int, kv_dim: int, ffn_dim: int, gated_ffn: bool
) -> list[tuple[int, int]]:
    shapes = [
        (d_model, d_model + 2 * kv_dim),  # QKV projection
        (d_model, d_model),  # output projection
        (d_model, ffn_dim),  # FFN up
        (ffn_dim, d_model),  # FFN down
    ]
    if gated_ffn:
        shapes.append((d_model, ffn_dim))  # FFN gate
    return shapes


def module_fc_time(
    batch_size: int,
    d_model: int,
    kv_dim: int,
    ffn_dim: int,
    gated_ffn: bool,
    tensor_parallel: int,
    module: PIMModuleConfig,
    config: PIMphonyConfig,
) -> tuple[float, CycleBreakdown]:
    """FC time of one layer on one module when FC runs on PIM (CENT-style).

    Weight matrices are sharded column-wise across the ``tensor_parallel``
    modules of the stage and further column-wise across the module's
    channels, so each channel runs a GEMV with the full reduction dimension
    and a slice of the output dimension, once per request in the batch.
    """
    if batch_size <= 0:
        return 0.0, ZERO_BREAKDOWN
    policy = _policy_of(config)
    channel = module.channel
    timing = module.timing
    shard = tensor_parallel * module.num_channels

    per_channel = ZERO_BREAKDOWN
    for in_dim, out_dim in _layer_fc_shapes(d_model, kv_dim, ffn_dim, gated_ffn):
        out_per_channel = max(channel.num_banks, out_dim // shard)
        per_channel = per_channel + fc_gemv_breakdown(
            in_dim=in_dim,
            out_dim=out_per_channel,
            channel=channel,
            timing=timing,
            policy=policy,
            n_vectors=batch_size,
            row_reuse=config.row_reuse,
        )
    aggregate = per_channel.scaled(module.num_channels)
    return per_channel.total, aggregate
