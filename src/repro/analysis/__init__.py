"""Analysis helpers: breakdowns, energy, report formatting."""

from repro.analysis.breakdown import breakdown_fractions, normalize_breakdown
from repro.analysis.energy_report import energy_from_breakdown, serving_energy
from repro.analysis.reporting import format_table

__all__ = [
    "breakdown_fractions",
    "normalize_breakdown",
    "energy_from_breakdown",
    "serving_energy",
    "format_table",
]
