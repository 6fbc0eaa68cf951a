"""Tests for report formatting helpers."""

from repro.analysis.reporting import format_table


class TestFormatting:
    def test_table_alignment_and_title(self):
        table = format_table(
            ["name", "value"], [["alpha", 1.23456], ["b", 2]], title="Example"
        )
        lines = table.splitlines()
        assert lines[0] == "Example"
        assert "alpha" in lines[3]
        assert "1.23" in table

