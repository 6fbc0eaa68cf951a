"""Tests for per-module layer timing (attention + FC on PIM)."""

import dataclasses
import heapq

import numpy as np
import pytest

import repro.system.layers as layers
from repro.core.orchestrator import PIMphonyConfig
from repro.pim.config import cent_module_config, neupims_module_config
from repro.pim.kernels import attention_head_cycles
from repro.pim.simulator import ZERO_BREAKDOWN, CycleBreakdown
from repro.system.layers import (
    TCPSharePrices,
    module_attention_time,
    module_fc_time,
    tcp_attention_breakdowns,
    tcp_attention_cycles,
)
from repro.system.parallelism import ParallelismPlan
from repro.system.pim_only import PIMOnlySystem
from repro.system.xpu_pim import XPUPIMSystem


class TestModuleAttention:
    def test_tcp_fully_utilises_channels(self, cent_module):
        cycles, utilization, breakdown = module_attention_time(
            context_lengths=[16384, 8192],
            kv_heads_per_module=4,
            group_size=1,
            head_dim=128,
            module=cent_module,
            config=PIMphonyConfig.tcp_only(),
        )
        assert cycles > 0
        assert utilization == pytest.approx(1.0)
        assert breakdown.total > cycles  # aggregate across channels

    def test_hfp_underutilises_with_few_long_tasks(self, cent_module):
        cycles, utilization, _ = module_attention_time(
            context_lengths=[32768],
            kv_heads_per_module=2,
            group_size=1,
            head_dim=128,
            module=cent_module,
            config=PIMphonyConfig.baseline(),
        )
        assert cycles > 0
        assert utilization <= 2 / cent_module.num_channels + 1e-6

    def test_tcp_faster_than_hfp(self, cent_module):
        contexts = [32768, 16384]
        hfp_cycles, _, _ = module_attention_time(
            contexts, 2, 1, 128, cent_module, PIMphonyConfig.baseline()
        )
        tcp_cycles, _, _ = module_attention_time(
            contexts, 2, 1, 128, cent_module, PIMphonyConfig.tcp_only()
        )
        assert tcp_cycles < hfp_cycles / 4

    def test_dcs_accelerates_attention(self, cent_module):
        contexts = [32768] * 4
        tcp_cycles, _, _ = module_attention_time(
            contexts, 4, 1, 128, cent_module, PIMphonyConfig.tcp_only()
        )
        dcs_cycles, _, _ = module_attention_time(
            contexts, 4, 1, 128, cent_module, PIMphonyConfig.tcp_dcs()
        )
        assert dcs_cycles < tcp_cycles

    def test_empty_batch_is_free(self, cent_module):
        cycles, utilization, _ = module_attention_time(
            [], 4, 1, 128, cent_module, PIMphonyConfig.full()
        )
        assert cycles == 0.0 and utilization == 0.0

    def test_cycles_scale_with_context(self, cent_module):
        short, _, _ = module_attention_time(
            [8192], 4, 1, 128, cent_module, PIMphonyConfig.full()
        )
        long, _, _ = module_attention_time(
            [32768], 4, 1, 128, cent_module, PIMphonyConfig.full()
        )
        assert long == pytest.approx(4 * short, rel=0.25)


def module_with(num_channels):
    """The CENT module with ``num_channels`` channels."""
    return dataclasses.replace(cent_module_config(), num_channels=num_channels)


def head_breakdown(tokens, module, config, group_size=1, head_dim=128):
    """One KV head's slice priced by the kernel estimator, outside ``layers``."""
    return attention_head_cycles(
        tokens=tokens,
        head_dim=head_dim,
        channel=module.channel,
        timing=module.timing,
        policy="dcs" if config.dcs else "static",
        group_size=group_size,
        row_reuse=config.row_reuse,
    )


def lpt_makespan(task_cycles, num_channels):
    """Longest-first placement on the least loaded channel (lowest index on ties)."""
    loads = [(0.0, index) for index in range(num_channels)]
    for cycles in task_cycles:
        load, index = heapq.heappop(loads)
        heapq.heappush(loads, (load + cycles, index))
    return max(load for load, _ in loads)


class TestHFPPlacement:
    """Head-first partitioning (the baseline): whole (request, KV head)
    tasks go to channels, so a few long tasks leave channels idle."""

    @pytest.mark.parametrize(("requests", "heads"), [(1, 1), (1, 2), (2, 2), (4, 2), (3, 5)])
    def test_few_long_tasks_leave_channels_idle(self, cent_module, requests, heads):
        """The Fig. 6(b,c) pathology: fewer equal tasks than channels."""
        cycles, utilization, _ = module_attention_time(
            [32768] * requests, heads, 1, 128, cent_module, PIMphonyConfig.baseline()
        )
        config = PIMphonyConfig.baseline()
        assert cycles == head_breakdown(32768, cent_module, config).total
        assert utilization == pytest.approx(requests * heads / cent_module.num_channels)

    def test_length_imbalance_caps_at_the_slowest_channel(self):
        module = module_with(2)
        config = PIMphonyConfig.baseline()
        cycles, utilization, _ = module_attention_time([32768, 4096], 1, 1, 128, module, config)
        long = head_breakdown(32768, module, config).total
        short = head_breakdown(4096, module, config).total
        assert cycles == long
        assert utilization == pytest.approx((long + short) / (2 * long))

    @pytest.mark.parametrize("tokens", [1, 17, 4096, 32768])
    def test_tasks_are_never_split(self, cent_module, tokens):
        config = PIMphonyConfig.baseline()
        cycles, utilization, aggregate = module_attention_time(
            [tokens], 1, 1, 128, cent_module, config
        )
        assert aggregate == head_breakdown(tokens, cent_module, config)
        assert cycles == aggregate.total
        assert utilization == pytest.approx(1 / cent_module.num_channels)

    @pytest.mark.parametrize("seed", range(5))
    def test_tasks_are_placed_by_cycle_total(self, seed):
        """Longest task first onto the channel with the fewest cycles; the
        makespan obeys the list-scheduling bound ``mean + longest``."""
        module = module_with(3)
        config = PIMphonyConfig.baseline()
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 20_000, size=7).tolist()
        heads = 2
        cycles, utilization, _ = module_attention_time(lengths, heads, 1, 128, module, config)
        tasks = sorted(lengths * heads, reverse=True)
        task_cycles = [head_breakdown(length, module, config).total for length in tasks]
        assert cycles == lpt_makespan(task_cycles, 3)
        assert max(task_cycles) <= cycles <= sum(task_cycles) / 3 + max(task_cycles)
        assert utilization == pytest.approx(sum(task_cycles) / (3 * cycles))

    @pytest.mark.parametrize(
        "config", [PIMphonyConfig.baseline(), PIMphonyConfig(tcp=False, dcs=True, dpa=False)]
    )
    def test_aggregate_sums_every_task(self, cent_module, config):
        """Energy sees every task once, whichever channel ran it."""
        lengths, heads = [9000, 300, 9000, 41], 3
        _, _, aggregate = module_attention_time(lengths, heads, 1, 128, cent_module, config)
        expected = sum(
            (head_breakdown(length, cent_module, config).scaled(heads) for length in lengths),
            start=ZERO_BREAKDOWN,
        )
        assert aggregate.total == pytest.approx(expected.total)
        assert aggregate.mac == pytest.approx(expected.mac)


class TestTCPShares:
    """Token-centric partitioning: every channel takes the ceiling share
    of every task, so all channels stay busy whatever the batch."""

    @pytest.mark.parametrize("tokens", [1, 17, 31, 32, 33, 4095, 4096, 4097, 32768])
    def test_every_channel_takes_the_ceiling_share(self, cent_module, tokens):
        config = PIMphonyConfig.full()
        heads = 4
        cycles, _, aggregate = module_attention_time([tokens], heads, 1, 128, cent_module, config)
        share = -(-tokens // cent_module.num_channels)
        per_channel = head_breakdown(share, cent_module, config).scaled(heads)
        assert cycles == per_channel.total
        assert aggregate == per_channel.scaled(cent_module.num_channels)

    @pytest.mark.parametrize("contexts", [[1], [17], [32768], [5, 5000, 70000]])
    def test_all_channels_active_regardless_of_batch(self, cent_module, contexts):
        cycles, utilization, aggregate = module_attention_time(
            contexts, 1, 1, 128, cent_module, PIMphonyConfig.tcp_only()
        )
        assert utilization == 1.0
        assert aggregate.total == pytest.approx(cent_module.num_channels * cycles)

    def test_remainder_tokens_round_up_on_every_channel(self):
        """17 tokens on 16 channels cost every channel a 2-token share, as
        32 tokens do; the remainder is not spread one token at a time."""
        module = module_with(16)
        config = PIMphonyConfig.tcp_only()
        odd, _, _ = module_attention_time([17], 1, 1, 128, module, config)
        even, _, _ = module_attention_time([32], 1, 1, 128, module, config)
        assert odd == even == head_breakdown(2, module, config).total

    def test_batch_cycles_add_over_requests(self, cent_module):
        config = PIMphonyConfig.full()
        contexts = [32768, 100, 4097]
        batch, _, _ = module_attention_time(contexts, 2, 4, 128, cent_module, config)
        alone = [
            module_attention_time([length], 2, 4, 128, cent_module, config)[0]
            for length in contexts
        ]
        assert batch == pytest.approx(sum(alone))

    @pytest.mark.parametrize("make_module", [cent_module_config, neupims_module_config])
    def test_tcp_beats_hfp_on_long_contexts(self, make_module):
        """The Fig. 4 effect: TCP restores channel utilisation and latency."""
        module = make_module()
        contexts = [16384, 16384]
        hfp, hfp_util, _ = module_attention_time(
            contexts, 2, 1, 128, module, PIMphonyConfig.baseline()
        )
        tcp, tcp_util, _ = module_attention_time(
            contexts, 2, 1, 128, module, PIMphonyConfig.tcp_only()
        )
        assert tcp_util > 2 * hfp_util
        assert tcp < hfp

    @pytest.mark.parametrize("config", [PIMphonyConfig.baseline(), PIMphonyConfig.full()])
    @pytest.mark.parametrize(("contexts", "heads"), [([], 4), ([0, 0], 4), ([100], 0)])
    def test_no_work_is_free(self, cent_module, config, contexts, heads):
        assert module_attention_time(contexts, heads, 1, 128, cent_module, config) == (
            0.0,
            0.0,
            ZERO_BREAKDOWN,
        )


class TestModuleFC:
    def test_fc_time_positive_and_scales_with_batch(self, cent_module, llm_7b):
        single, _ = module_fc_time(
            1, llm_7b.d_model, llm_7b.kv_dim, llm_7b.ffn_dim, True, 8, cent_module,
            PIMphonyConfig.full(),
        )
        batched, _ = module_fc_time(
            8, llm_7b.d_model, llm_7b.kv_dim, llm_7b.ffn_dim, True, 8, cent_module,
            PIMphonyConfig.full(),
        )
        assert single > 0
        assert batched > single

    def test_more_tensor_parallelism_shrinks_fc_time(self, cent_module, llm_7b):
        narrow, _ = module_fc_time(
            4, llm_7b.d_model, llm_7b.kv_dim, llm_7b.ffn_dim, True, 1, cent_module,
            PIMphonyConfig.full(),
        )
        wide, _ = module_fc_time(
            4, llm_7b.d_model, llm_7b.kv_dim, llm_7b.ffn_dim, True, 8, cent_module,
            PIMphonyConfig.full(),
        )
        assert wide < narrow

    def test_zero_batch_is_free(self, cent_module, llm_7b):
        cycles, _ = module_fc_time(
            0, llm_7b.d_model, llm_7b.kv_dim, llm_7b.ffn_dim, True, 8, cent_module,
            PIMphonyConfig.full(),
        )
        assert cycles == 0.0


#: (kv_heads_per_module, group_size, head_dim, PIMphony configuration):
#: MHA and GQA heads under DCS, and the static policy without row reuse.
PRICING_CASES = [
    (4, 1, 128, PIMphonyConfig.full()),
    (2, 4, 128, PIMphonyConfig.full()),
    (4, 4, 128, PIMphonyConfig(tcp=True, dcs=False, row_reuse=False)),
]


def toy_stage_time(attention_cycles, utilization, batch_size):
    """A stand-in for a system's ``_stage_time``: elementwise, like theirs."""
    seconds = attention_cycles * 1e-9 + batch_size * 3e-6
    return seconds, utilization * (attention_cycles * 1e-9) / seconds


class TestTCPSharePrices:
    """The share tables and the breakdown memo hold exactly what the
    unmemoised pricing functions return."""

    @staticmethod
    def make(case, max_context_tokens=4000):
        kv_heads, group_size, head_dim, config = case
        return TCPSharePrices(
            kv_heads,
            group_size,
            head_dim,
            cent_module_config(),
            config,
            max_context_tokens,
            toy_stage_time,
        )

    @staticmethod
    def pricing_args(case):
        kv_heads, group_size, head_dim, config = case
        return kv_heads, group_size, head_dim, cent_module_config(), config

    def test_window_sets_the_table_size(self):
        # ceil(4000 / 32) = 125 shares past zero; 4096 / 32 divides evenly.
        assert self.make(PRICING_CASES[0]).n_shares == 126
        assert self.make(PRICING_CASES[0], max_context_tokens=4096).n_shares == 129

    @staticmethod
    def breakdowns(prices, shares):
        return [CycleBreakdown(*term) for term in prices.terms(shares)]

    @pytest.mark.parametrize("case", PRICING_CASES)
    def test_totals_equal_the_closed_form(self, case):
        """Each table holds the closed form and the stage time applied to
        it; ``grid`` and ``tables`` read them, or price past the window."""
        prices = self.make(case)
        args = self.pricing_args(case)

        def expected(shares):
            attention = tcp_attention_cycles(shares, *args)
            seconds, utilization = toy_stage_time(attention, 1.0, 1)
            return attention, seconds, seconds * utilization

        inside = np.arange(prices.n_shares, dtype=np.int64)
        grid = np.array([[3, prices.n_shares - 1], [1, 0]], dtype=np.int64)
        # A grid reaching past the tables is priced directly, and the tables
        # keep their size.
        past = np.array([[prices.n_shares, 7], [prices.n_shares + 1000, 1]], dtype=np.int64)
        for shares in (inside, grid, past):
            for got, want in zip(prices.grid(shares), expected(shares), strict=True):
                assert (got == want).all()
        for shares in ([5, 1, 5, prices.n_shares - 1], [prices.n_shares + 3, 2, 2]):
            tables = prices.tables(shares)
            want = expected(np.array(shares, dtype=np.int64))
            for table, column in zip(tables, want, strict=True):
                assert [table[share] for share in shares] == column.tolist()
        assert [len(table) for table in (*prices._arrays, *prices._lists)] == [prices.n_shares] * 6

    @pytest.mark.parametrize("case", PRICING_CASES)
    def test_breakdowns_equal_the_unmemoised_terms(self, case):
        prices = self.make(case)
        args = self.pricing_args(case)
        shares = [5, 1, 5, 125, 64, 1, 125]
        expected = [tcp_attention_breakdowns([share], *args)[0] for share in shares]
        assert self.breakdowns(prices, shares) == expected
        assert self.breakdowns(prices, shares) == expected  # now from the memo
        every = list(range(prices.n_shares))
        assert self.breakdowns(prices, every) == tcp_attention_breakdowns(every, *args)
        assert len(prices._terms) == prices.n_shares

    def test_shares_past_the_window_are_priced_but_not_stored(self):
        case = PRICING_CASES[1]
        prices = self.make(case)
        past = [prices.n_shares, 2, prices.n_shares + 77, prices.n_shares]
        expected = tcp_attention_breakdowns(past, *self.pricing_args(case))
        assert self.breakdowns(prices, past) == expected
        assert set(prices._terms) == {2}
        assert self.breakdowns(prices, past) == expected
        assert set(prices._terms) == {2}

    def test_memo_never_exceeds_the_table_size(self):
        prices = self.make(PRICING_CASES[0], max_context_tokens=640)
        rng = np.random.default_rng(7)
        for _ in range(40):
            prices.terms(rng.integers(0, 3 * prices.n_shares, size=8).tolist())
            assert len(prices._terms) <= prices.n_shares
        assert len(prices._terms) == prices.n_shares


def pim_only_system(model):
    return PIMOnlySystem(
        model=model, num_modules=8, plan=ParallelismPlan(8, 1), module=cent_module_config()
    )


def xpu_pim_system(model):
    return XPUPIMSystem(
        model=model, num_modules=4, plan=ParallelismPlan(4, 1), module=neupims_module_config()
    )


@pytest.mark.parametrize("make_system", [pim_only_system, xpu_pim_system])
class TestEachSharePricedOncePerSystem:
    """TCP single-stage systems price each per-channel share's breakdown
    once, however many steps read it, without moving any result."""

    #: Batches whose contexts cover 8 distinct per-channel shares over the
    #: systems' 32 channels: 1, 2, 10, 13, 14, 100, 128 and 129.
    BATCHES = [
        [1, 32, 33, 4096, 4097],
        [300, 4097, 1, 1],
        [32, 4096, 4097, 416, 441],
        [3200, 1, 64, 300, 310],
    ]

    def test_each_share_is_priced_once(self, make_system, llm_7b, monkeypatch):
        calls = []
        original = layers.attention_head_cycles

        def counting(**kwargs):
            calls.append(kwargs["tokens"])
            return original(**kwargs)

        monkeypatch.setattr(layers, "attention_head_cycles", counting)
        system = make_system(llm_7b)
        for _ in range(3):
            for batch in self.BATCHES:
                system.decode_step(batch)
        assert sorted(calls) == [1, 2, 10, 13, 14, 100, 128, 129]

    def test_warm_steps_equal_cold_steps(self, make_system, llm_7b):
        warm = make_system(llm_7b)
        for batch in self.BATCHES:
            warm.decode_step(batch)
        warm.decode_span([5000, 17], 8, 64)
        for batch in [*self.BATCHES, [4097, 2], [129 * 32]]:
            assert warm.decode_step(batch) == make_system(llm_7b).decode_step(batch)

    @pytest.mark.parametrize(
        ("contexts", "stride", "count"),
        [([4096, 300, 17], 8, 9), ([32700, 1000], 16, 12), ([1, 1, 1], 1, 40)],
    )
    def test_span_rows_equal_steps_after_the_table_is_built(
        self, make_system, llm_7b, contexts, stride, count
    ):
        """The second span reaches past the 32K window, so its grid is
        priced directly; the others read the table the warm-up built."""
        system = make_system(llm_7b)
        system.decode_span([2048], 1, 1)
        span = system.decode_span(contexts, stride, count)
        for j in range(count):
            step = system.decode_step([c + j * stride for c in contexts])
            assert float(span[j, 0]) == step.seconds
            assert float(span[j, 1]) == step.pim_utilization
