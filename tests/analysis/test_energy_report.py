"""Tests for serving-level energy accounting (paper Fig. 16)."""

import pytest

from repro.analysis.energy_report import serving_energy
from repro.baselines.cent import cent_system_config
from repro.core.orchestrator import PIMphonyConfig
from repro.pim.energy import EnergyModel
from repro.serving import FastServingEngine, serve
from repro.system.xpu import XPUOnlySystem
from repro.workloads.datasets import get_dataset
from repro.workloads.traces import generate_trace


def make_trace(model):
    return generate_trace(
        get_dataset("qmsum"), 6, seed=0, context_window=model.context_window, output_tokens=8
    )


def run(model, config):
    system = cent_system_config(model, pimphony=config)
    return serve(system, make_trace(model), step_stride=4), system


class TestServingEnergy:
    def test_baseline_attention_is_background_dominated(self, llm_7b):
        """The Fig. 16 observation: ~70% of baseline attention energy is
        runtime-proportional background power."""
        result, system = run(llm_7b, PIMphonyConfig.baseline())
        energy = serving_energy(result, system.module.timing, EnergyModel())
        assert energy["attention"].fraction("background") > 0.5

    def test_pimphony_reduces_attention_energy_and_background_share(self, llm_7b):
        baseline_result, baseline_system = run(llm_7b, PIMphonyConfig.baseline())
        pimphony_result, pimphony_system = run(llm_7b, PIMphonyConfig.full())
        model = EnergyModel()
        baseline_energy = serving_energy(baseline_result, baseline_system.module.timing, model)
        pimphony_energy = serving_energy(pimphony_result, pimphony_system.module.timing, model)
        assert pimphony_energy["attention"].total < baseline_energy["attention"].total
        assert (
            pimphony_energy["attention"].fraction("background")
            < baseline_energy["attention"].fraction("background")
        )

    def test_fc_energy_reported_separately(self, llm_7b):
        result, system = run(llm_7b, PIMphonyConfig.full())
        energy = serving_energy(result, system.module.timing)
        assert energy["fc"].total > 0

    def test_span_priced_pim_run_is_rejected(self, llm_7b):
        """Fast-mode spans carry no cycle breakdowns, so their PIM energy
        would silently read low; scalar mode prices the same run."""
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        fast = FastServingEngine(system=system, step_stride=4).run(make_trace(llm_7b))
        assert fast.span_evaluations > 0
        with pytest.raises(ValueError, match="engine.mode=scalar"):
            serving_energy(fast, system.module.timing)
        scalar = serve(system, make_trace(llm_7b), step_stride=4)
        assert scalar.span_evaluations == 0
        assert serving_energy(scalar, system.module.timing)["attention"].mac > 0

    def test_span_priced_run_without_pim_is_accepted(self, llm_7b):
        timing = cent_system_config(llm_7b).module.timing
        system = XPUOnlySystem(model=llm_7b, num_modules=2)
        result = FastServingEngine(system=system, step_stride=4).run(make_trace(llm_7b))
        assert result.span_evaluations > 0
        assert serving_energy(result, timing)["fc"].total == 0.0
