"""Multi-node PIM system models; the serving engine lives in :mod:`repro.serving`."""

from repro.serving.engine import EngineResult
from repro.serving.interfaces import ServingResult
from repro.system.interconnect import InterconnectConfig
from repro.system.layers import module_attention_time, module_fc_time
from repro.system.parallelism import ParallelismPlan, enumerate_plans
from repro.system.pim_only import PIMOnlySystem
from repro.system.xpu import XPUConfig, XPUOnlySystem
from repro.system.xpu_pim import XPUPIMSystem

__all__ = [
    "ParallelismPlan",
    "enumerate_plans",
    "InterconnectConfig",
    "module_attention_time",
    "module_fc_time",
    "XPUConfig",
    "XPUOnlySystem",
    "PIMOnlySystem",
    "XPUPIMSystem",
    "EngineResult",
    "ServingResult",
]
