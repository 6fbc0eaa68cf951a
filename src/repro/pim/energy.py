"""PIM energy model (paper Fig. 16).

Energy is decomposed the way the paper reports it: ``MAC`` (compute),
``I/O`` (tile transfers between GPR and channel buffers), ``Background``
(runtime-proportional standby / peripheral power) and ``Else`` (row
activate/precharge, refresh and EPU work).  The decisive effect reproduced
here is that background energy is proportional to *runtime*, so a faster
schedule directly shrinks the dominant baseline term.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pim.simulator import CycleBreakdown


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of a kernel or decode step, in joules."""

    mac: float
    io: float
    background: float
    act_pre: float
    refresh: float
    epu: float = 0.0

    @property
    def else_energy(self) -> float:
        """The paper's ``Else`` bucket: ACT/PRE + refresh + EPU."""
        return self.act_pre + self.refresh + self.epu

    @property
    def total(self) -> float:
        return self.mac + self.io + self.background + self.else_energy

    def fraction(self, component: str) -> float:
        """Fraction of total energy attributed to ``component``."""
        total = self.total
        if total == 0:
            return 0.0
        value = {
            "mac": self.mac,
            "io": self.io,
            "background": self.background,
            "else": self.else_energy,
        }[component]
        return value / total

    def __add__(self, other: EnergyBreakdown) -> EnergyBreakdown:
        return EnergyBreakdown(
            mac=self.mac + other.mac,
            io=self.io + other.io,
            background=self.background + other.background,
            act_pre=self.act_pre + other.act_pre,
            refresh=self.refresh + other.refresh,
            epu=self.epu + other.epu,
        )

    def scaled(self, factor: float) -> EnergyBreakdown:
        """Return this breakdown scaled by ``factor``."""
        return EnergyBreakdown(
            mac=self.mac * factor,
            io=self.io * factor,
            background=self.background * factor,
            act_pre=self.act_pre * factor,
            refresh=self.refresh * factor,
            epu=self.epu * factor,
        )


ZERO_ENERGY = EnergyBreakdown(mac=0.0, io=0.0, background=0.0, act_pre=0.0, refresh=0.0)


@dataclass(frozen=True)
class EnergyModel:
    """Per-event and per-cycle energy coefficients of one PIM channel.

    Defaults follow GDDR6-AiM-class estimates: a channel-wide MAC command
    (16 banks x 16 MACs) costs a few nanojoules, a 32B external transfer
    costs about the same, a row activation costs tens of nanojoules, and the
    channel draws a constant background power while a kernel is resident.
    """

    energy_per_mac_command: float = 2.0e-9
    energy_per_io_tile: float = 2.5e-9
    energy_per_activation: float = 15.0e-9
    energy_per_refresh_cycle: float = 0.05e-9
    background_power_watts: float = 0.55
    epu_energy_per_byte: float = 0.02e-9
    clock_ghz: float = 1.0

    def channel_energy(
        self,
        breakdown: CycleBreakdown,
        n_mac: int,
        n_io_tiles: int,
        n_activations: int,
        epu_bytes: int = 0,
    ) -> EnergyBreakdown:
        """Energy of one channel executing a kernel with the given counts."""
        runtime_seconds = breakdown.total / (self.clock_ghz * 1e9)
        return EnergyBreakdown(
            mac=n_mac * self.energy_per_mac_command,
            io=n_io_tiles * self.energy_per_io_tile,
            background=runtime_seconds * self.background_power_watts,
            act_pre=n_activations * self.energy_per_activation,
            refresh=breakdown.refresh * self.energy_per_refresh_cycle,
            epu=epu_bytes * self.epu_energy_per_byte,
        )

    def idle_energy(self, cycles: float) -> EnergyBreakdown:
        """Background-only energy of an idle channel over ``cycles``."""
        runtime_seconds = cycles / (self.clock_ghz * 1e9)
        return EnergyBreakdown(
            mac=0.0,
            io=0.0,
            background=runtime_seconds * self.background_power_watts,
            act_pre=0.0,
            refresh=0.0,
        )
