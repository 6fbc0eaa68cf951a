"""Analysis helpers: breakdowns, energy, report formatting."""
