"""DRAM timing substrate used by the PIM command simulator."""
