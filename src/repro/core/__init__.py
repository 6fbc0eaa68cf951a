"""PIMphony core: the feature configuration, DCS scheduling and DPA placement.

TCP vs HFP attention is priced in :mod:`repro.system.layers`.
"""

from repro.core.dcs import DCSScheduler
from repro.core.dispatcher import OnModuleDispatcher
from repro.core.dpa import DPAController
from repro.core.orchestrator import PIMphonyConfig

__all__ = [
    "DCSScheduler",
    "DPAController",
    "OnModuleDispatcher",
    "PIMphonyConfig",
]
