"""The PIMphony orchestrator facade.

:class:`PIMphonyConfig` selects which of the three co-designed techniques
are active -- Token-Centric Partitioning (TCP), Dynamic Command Scheduling
(DCS) and Dynamic PIM Access (DPA) -- exactly as the paper's incremental
evaluation does (baseline, +TCP, +TCP+DCS, +TCP+DCS+DPA).
:class:`PIMphony` turns a configuration into the concrete strategy objects
(partitioner, scheduler policy, allocator factory) the system models use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dcs import DCSScheduler
from repro.core.dpa import DPAController
from repro.core.partitioning import HeadFirstPartitioner, Partitioner, TokenCentricPartitioner
from repro.memory.static_alloc import StaticAllocator
from repro.pim.config import PIMChannelConfig
from repro.pim.scheduling import StaticScheduler
from repro.pim.simulator import CommandScheduler
from repro.pim.timing import PIMTiming


@dataclass(frozen=True)
class PIMphonyConfig:
    """Feature selection for the PIMphony orchestrator.

    Attributes:
        tcp: Enable Token-Centric PIM Partitioning.
        dcs: Enable Dynamic PIM Command Scheduling (with I/O-aware buffering).
        dpa: Enable Dynamic PIM Access (lazy chunked KV-cache allocation).
        row_reuse: Use the row-reuse mapping for attention kernels.
        name: Optional label; derived from the enabled features when empty.
    """

    tcp: bool = True
    dcs: bool = True
    dpa: bool = True
    row_reuse: bool = True
    name: str = ""

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        if not (self.tcp or self.dcs or self.dpa):
            return "baseline"
        parts = []
        if self.tcp:
            parts.append("TCP")
        if self.dcs:
            parts.append("DCS")
        if self.dpa:
            parts.append("DPA")
        return "+".join(parts)

    @staticmethod
    def baseline() -> PIMphonyConfig:
        """Conventional PIM system: HFP, static scheduling, static memory."""
        return PIMphonyConfig(tcp=False, dcs=False, dpa=False, name="baseline")

    @staticmethod
    def tcp_only() -> PIMphonyConfig:
        return PIMphonyConfig(tcp=True, dcs=False, dpa=False)

    @staticmethod
    def tcp_dcs() -> PIMphonyConfig:
        return PIMphonyConfig(tcp=True, dcs=True, dpa=False)

    @staticmethod
    def full() -> PIMphonyConfig:
        """All three techniques enabled (the complete PIMphony system)."""
        return PIMphonyConfig(tcp=True, dcs=True, dpa=True)

    @staticmethod
    def incremental_sweep() -> list["PIMphonyConfig"]:
        """The four configurations of the paper's incremental evaluation."""
        return [
            PIMphonyConfig.baseline(),
            PIMphonyConfig.tcp_only(),
            PIMphonyConfig.tcp_dcs(),
            PIMphonyConfig.full(),
        ]


class PIMphony:
    """Facade bundling the concrete strategies selected by a configuration."""

    def __init__(self, config: PIMphonyConfig | None = None) -> None:
        self.config = config if config is not None else PIMphonyConfig.full()

    # -- strategy accessors --------------------------------------------------

    @property
    def scheduling_policy(self) -> str:
        """Kernel-estimator policy name implied by the configuration."""
        return "dcs" if self.config.dcs else "static"

    def partitioner(self) -> Partitioner:
        """Intra-module attention partitioner implied by the configuration."""
        return TokenCentricPartitioner() if self.config.tcp else HeadFirstPartitioner()

    def scheduler(
        self, timing: PIMTiming, channel: PIMChannelConfig | None = None
    ) -> CommandScheduler:
        """Exact command-level scheduler implied by the configuration."""
        if self.config.dcs:
            return DCSScheduler(timing, channel)
        return StaticScheduler(timing, channel)

    def make_allocator(
        self,
        capacity_bytes: int,
        bytes_per_token: int,
        max_context_tokens: int,
    ) -> DPAController | StaticAllocator:
        """KV-cache allocator implied by the configuration."""
        if self.config.dpa:
            return DPAController(capacity_bytes=capacity_bytes, bytes_per_token=bytes_per_token)
        return StaticAllocator(
            capacity_bytes=capacity_bytes,
            max_context_tokens=max_context_tokens,
            bytes_per_token=bytes_per_token,
        )

    def dpa_controller(self, capacity_bytes: int, bytes_per_token: int) -> DPAController:
        """Build a DPA controller for one module (requires DPA enabled)."""
        if not self.config.dpa:
            raise ValueError("DPA is disabled in this configuration")
        return DPAController(capacity_bytes=capacity_bytes, bytes_per_token=bytes_per_token)

    def __repr__(self) -> str:
        return f"PIMphony({self.config.label})"
