"""Tests for the PIMphony feature configuration."""

from repro.core.orchestrator import PIMphonyConfig


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

    def test_default_is_full(self):
        assert PIMphonyConfig() == PIMphonyConfig.full()
