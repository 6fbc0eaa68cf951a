"""Tests for the PIMphony configuration facade."""

import pytest

from repro.core.dcs import DCSScheduler
from repro.core.dpa import DPAController
from repro.core.orchestrator import PIMphony, PIMphonyConfig
from repro.core.partitioning import HeadFirstPartitioner, TokenCentricPartitioner
from repro.memory.static_alloc import StaticAllocator
from repro.pim.scheduling import StaticScheduler
from repro.pim.timing import aimx_timing


class TestConfig:
    def test_labels(self):
        assert PIMphonyConfig.baseline().label == "baseline"
        assert PIMphonyConfig.tcp_only().label == "TCP"
        assert PIMphonyConfig.tcp_dcs().label == "TCP+DCS"
        assert PIMphonyConfig.full().label == "TCP+DCS+DPA"

    def test_incremental_sweep_matches_paper_order(self):
        sweep = PIMphonyConfig.incremental_sweep()
        assert [config.label for config in sweep] == [
            "baseline",
            "TCP",
            "TCP+DCS",
            "TCP+DCS+DPA",
        ]

    def test_custom_name_overrides_label(self):
        config = PIMphonyConfig(tcp=True, dcs=False, dpa=False, name="ablation-A")
        assert config.label == "ablation-A"


class TestStrategySelection:
    def test_baseline_strategies(self):
        orchestrator = PIMphony(PIMphonyConfig.baseline())
        assert isinstance(orchestrator.partitioner(), HeadFirstPartitioner)
        assert isinstance(orchestrator.scheduler(aimx_timing()), StaticScheduler)
        assert orchestrator.scheduling_policy == "static"
        allocator = orchestrator.make_allocator(1024**3, 1024, 32768)
        assert isinstance(allocator, StaticAllocator)

    def test_full_strategies(self):
        orchestrator = PIMphony(PIMphonyConfig.full())
        assert isinstance(orchestrator.partitioner(), TokenCentricPartitioner)
        assert isinstance(orchestrator.scheduler(aimx_timing()), DCSScheduler)
        assert orchestrator.scheduling_policy == "dcs"
        allocator = orchestrator.make_allocator(1024**3, 1024, 32768)
        assert isinstance(allocator, DPAController)
        assert allocator.capacity_bytes == 1024**3

    def test_default_is_full(self):
        assert PIMphony().config.label == "TCP+DCS+DPA"

    def test_dpa_controller_requires_dpa(self):
        with pytest.raises(ValueError):
            PIMphony(PIMphonyConfig.baseline()).dpa_controller(1024**3, 1024)
        controller = PIMphony().dpa_controller(1024**3, 1024)
        assert controller.capacity_bytes == 1024**3

    def test_repr_mentions_label(self):
        assert "TCP+DCS+DPA" in repr(PIMphony())
