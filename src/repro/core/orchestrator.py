"""The PIMphony feature configuration.

:class:`PIMphonyConfig` selects which of the three co-designed techniques
are active -- Token-Centric Partitioning (TCP), Dynamic Command Scheduling
(DCS) and Dynamic PIM Access (DPA) -- exactly as the paper's incremental
evaluation does (baseline, +TCP, +TCP+DCS, +TCP+DCS+DPA).  Each choice is
made in one place: TCP vs HFP attention pricing in
:func:`repro.system.layers.module_attention_time`, the DCS vs static kernel
estimator in :mod:`repro.system.layers`, and the DPA vs static KV-cache
allocator in :func:`repro.serving.interfaces.build_allocator`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PIMphonyConfig:
    """Which PIMphony techniques are enabled.

    Attributes:
        tcp: Enable Token-Centric PIM Partitioning.
        dcs: Enable Dynamic PIM Command Scheduling (with I/O-aware buffering).
        dpa: Enable Dynamic PIM Access (lazy chunked KV-cache allocation).
        row_reuse: Use the row-reuse mapping for attention kernels.
    """

    tcp: bool = True
    dcs: bool = True
    dpa: bool = True
    row_reuse: bool = True

    @property
    def label(self) -> str:
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
        return PIMphonyConfig(tcp=False, dcs=False, dpa=False)

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

