"""Energy accounting for kernels and serving runs (paper Fig. 16)."""

from __future__ import annotations

from repro.pim.energy import EnergyBreakdown, EnergyModel
from repro.pim.simulator import CycleBreakdown
from repro.pim.timing import PIMTiming
from repro.serving.interfaces import ServingResult


def energy_from_breakdown(
    breakdown: CycleBreakdown,
    timing: PIMTiming,
    model: EnergyModel,
    background_cycles: float | None = None,
) -> EnergyBreakdown:
    """Derive event counts from a cycle breakdown and price them.

    The breakdown's busy components encode how many commands of each class
    executed (busy cycles divided by per-command occupancy), which is enough
    for the per-event energy terms; background energy is charged over
    ``background_cycles`` (defaults to the breakdown's own total).
    """
    n_mac = breakdown.mac / timing.mac_occupancy if timing.mac_occupancy else 0.0
    n_wr = breakdown.dt_gbuf / timing.wr_inp_occupancy if timing.wr_inp_occupancy else 0.0
    n_rd = breakdown.dt_outreg / timing.rd_out_occupancy if timing.rd_out_occupancy else 0.0
    n_act = (
        breakdown.act_pre / timing.dram.row_switch_cycles
        if timing.dram.row_switch_cycles
        else 0.0
    )
    runtime = background_cycles if background_cycles is not None else breakdown.total
    runtime_seconds = runtime / (model.clock_ghz * 1e9)
    return EnergyBreakdown(
        mac=n_mac * model.energy_per_mac_command,
        io=(n_wr + n_rd) * model.energy_per_io_tile,
        background=runtime_seconds * model.background_power_watts,
        act_pre=n_act * model.energy_per_activation,
        refresh=breakdown.refresh * model.energy_per_refresh_cycle,
    )


def serving_energy(
    result: ServingResult,
    timing: PIMTiming,
    model: EnergyModel | None = None,
) -> dict[str, EnergyBreakdown]:
    """Energy of a serving run, split into attention and FC contributions.

    Background power is charged for every PIM channel in the system over the
    whole wall-clock time of the run, which is what makes low-utilisation
    baselines background-dominated (the effect Fig. 16 highlights).

    The dynamic components come from ``result``'s cycle breakdowns, which
    span-priced evaluations leave at zero.

    Raises:
        ValueError: if ``result`` is a fast-mode run on a system with PIM
            channels that priced evaluations with ``decode_span``; serve
            it with ``engine.mode=scalar`` (the default of
            :func:`~repro.serving.engine.serve`) instead.
    """
    # Only an EngineResult counts span-priced evaluations.
    span_evaluations = getattr(result, "span_evaluations", 0)
    if span_evaluations and result.total_pim_channels:
        raise ValueError(
            f"{span_evaluations} decode evaluations were priced by decode_span "
            "without cycle breakdowns, so their PIM energy is unknown; run "
            "with engine.mode=scalar"
        )
    energy_model = model if model is not None else EnergyModel()
    total_cycles = timing.seconds_to_cycles(result.total_seconds)
    background_cycles = total_cycles * max(1, result.total_pim_channels)

    attention = energy_from_breakdown(
        result.attention_breakdown, timing, energy_model, background_cycles=background_cycles
    )
    fc = energy_from_breakdown(
        result.fc_breakdown, timing, energy_model, background_cycles=0.0
    )
    return {"attention": attention, "fc": fc}
