"""DRAM timing substrate used by the PIM command simulator."""

from repro.dram.refresh import RefreshModel
from repro.dram.timing import DRAMTiming

__all__ = ["DRAMTiming", "RefreshModel"]
