"""Tests for the prefill cost model and its engine integration."""

from dataclasses import dataclass

import pytest

from repro.baselines.cent import cent_system_config
from repro.baselines.neupims import neupims_system_config
from repro.core.orchestrator import PIMphonyConfig
from repro.serving import (
    LinearPrefillModel,
    PrefillConfig,
    ServingEngine,
    StepResult,
    prefill_model_for,
    serve,
)
from repro.workloads.traces import Request, RequestTrace


@dataclass
class ToySystem:
    kv_capacity_bytes: int = 1_000_000
    kv_bytes_per_token: int = 1
    max_context_tokens: int = 65536
    step_seconds: float = 0.01

    @property
    def dynamic_memory(self) -> bool:
        # Static allocation: the chunked allocator's 1MB chunk granularity
        # would round this toy capacity down to zero admittable requests.
        return False

    @property
    def total_pim_channels(self) -> int:
        return 0

    def decode_step(self, context_lengths) -> StepResult:
        if not context_lengths:
            return StepResult(seconds=0.0, pim_utilization=0.0)
        return StepResult(seconds=self.step_seconds, pim_utilization=0.0)


def single_request_trace(prompt, output=4, arrival=0.0, request_id=0):
    return RequestTrace(
        dataset="toy",
        requests=(
            Request(
                request_id=request_id,
                prompt_tokens=prompt,
                output_tokens=output,
                arrival_s=arrival,
            ),
        ),
    )


class TestLinearPrefillModel:
    def test_zero_tokens_cost_nothing(self):
        model = LinearPrefillModel(per_token_s=1e-3, per_token_sq_s=1e-6, base_s=0.5)
        assert model.cumulative_seconds(0) == 0.0
        assert model.cumulative_seconds(-5) == 0.0

    def test_closed_form(self):
        model = LinearPrefillModel(per_token_s=2.0, per_token_sq_s=3.0, base_s=1.0)
        assert model.cumulative_seconds(10) == pytest.approx(1.0 + 20.0 + 300.0)

    def test_monotonic(self):
        model = LinearPrefillModel(per_token_s=1e-4, per_token_sq_s=1e-8)
        costs = [model.cumulative_seconds(t) for t in (1, 128, 4096, 65536)]
        assert costs == sorted(costs)
        assert costs[0] > 0

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            LinearPrefillModel(per_token_s=-1.0)

    def test_chunk_tokens_validation(self):
        model = LinearPrefillModel(per_token_s=1e-4)
        with pytest.raises(ValueError):
            PrefillConfig(model, chunk_tokens=0)
        assert PrefillConfig(model).mode == "blocking"
        assert PrefillConfig(model, chunk_tokens=256).mode == "chunked"


class TestSystemPrefillModels:
    def test_prefill_model_for_rejects_plain_systems(self):
        with pytest.raises(TypeError):
            prefill_model_for(object())

    def test_system_models_are_monotonic_and_positive(self, llm_7b):
        pim_only = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        xpu_pim = neupims_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        for system in (pim_only, xpu_pim):
            model = prefill_model_for(system)
            assert model.cumulative_seconds(0) == 0.0
            costs = [model.cumulative_seconds(t) for t in (128, 1024, 4096)]
            assert costs == sorted(costs)
            assert costs[0] > 0

    def test_pim_only_prefill_slower_than_xpu_pim(self, llm_7b):
        # Prefill is compute bound; the CENT PNM (3 TFLOPS/module) is far
        # slower at it than NeuPIMs-style matrix units -- the reason
        # heterogeneous deployments keep prefill off PIM.
        pim_only = prefill_model_for(cent_system_config(llm_7b, pimphony=PIMphonyConfig.full()))
        xpu_pim = prefill_model_for(
            neupims_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        )
        assert pim_only.cumulative_seconds(4096) > xpu_pim.cumulative_seconds(4096)


class TestEnginePrefillIntegration:
    def test_blocking_prefill_charges_exactly_queue_plus_prefill_plus_step(self):
        system = ToySystem(step_seconds=0.01)
        model = LinearPrefillModel(per_token_s=1e-3)
        result = serve(
            system, single_request_trace(prompt=200), prefill=PrefillConfig(model)
        )
        record = result.request_records[0]
        # Arrival 0, admitted immediately: TTFT = prefill(200) + one step.
        assert record.ttft_s == pytest.approx(0.2 + 0.01)
        assert record.prefill_s == pytest.approx(0.2)
        assert result.prefill_mode == "blocking"
        assert result.prefill_seconds_total == pytest.approx(0.2)

    def test_longer_context_has_strictly_larger_ttft(self):
        system = ToySystem()
        model = LinearPrefillModel(per_token_s=1e-4, per_token_sq_s=1e-9)
        short = serve(system, single_request_trace(128), prefill=PrefillConfig(model))
        long = serve(system, single_request_trace(4096), prefill=PrefillConfig(model))
        assert long.ttft_mean_s > short.ttft_mean_s

    def test_no_prefill_config_keeps_legacy_free_prompt(self):
        system = ToySystem()
        result = serve(system, single_request_trace(4096))
        assert result.prefill_mode == "none"
        assert result.prefill_seconds_total == 0.0
        assert result.request_records[0].ttft_s == pytest.approx(system.step_seconds)

    def test_chunked_single_request_matches_blocking_ttft(self):
        # With nothing to interleave against, chunked prefill telescopes to
        # the same cumulative cost as blocking.
        system = ToySystem()
        model = LinearPrefillModel(per_token_s=1e-3, per_token_sq_s=1e-7)
        blocking = serve(system, single_request_trace(500), prefill=PrefillConfig(model))
        chunked = serve(
            system,
            single_request_trace(500),
            prefill=PrefillConfig(model, chunk_tokens=64),
        )
        assert chunked.ttft_mean_s == pytest.approx(blocking.ttft_mean_s)
        assert chunked.prefill_seconds_total == pytest.approx(
            blocking.prefill_seconds_total
        )
        assert chunked.prefill_mode == "chunked"

    def test_chunked_prefill_stretches_concurrent_decode(self):
        # Request 0 decodes while request 1 prefills: in chunked mode the
        # prefill work rides on the decode steps, lengthening them; tokens
        # served must be identical either way.
        system = ToySystem()
        model = LinearPrefillModel(per_token_s=1e-3)
        requests = (
            Request(request_id=0, prompt_tokens=8, output_tokens=64, arrival_s=0.0),
            Request(request_id=1, prompt_tokens=400, output_tokens=8, arrival_s=0.02),
        )
        trace = RequestTrace(dataset="toy", requests=requests)
        blocking = serve(system, trace, prefill=PrefillConfig(model))
        chunked = serve(system, trace, prefill=PrefillConfig(model, chunk_tokens=50))
        assert blocking.total_output_tokens == chunked.total_output_tokens == 72
        # Blocking models a parallel prefill path, so the decode clock never
        # stretches; chunked serialises prefill onto the decode hardware.
        assert chunked.makespan_s > blocking.makespan_s

    def test_blocking_prefill_with_all_requests_prefilling_advances_clock(self):
        # Both requests arrive together and prefill for a while with no
        # decode work available: the engine must idle the decode path
        # forward instead of spinning.
        system = ToySystem()
        model = LinearPrefillModel(per_token_s=1e-2)
        requests = (
            Request(request_id=0, prompt_tokens=100, output_tokens=2, arrival_s=0.0),
            Request(request_id=1, prompt_tokens=50, output_tokens=2, arrival_s=0.0),
        )
        trace = RequestTrace(dataset="toy", requests=requests)
        result = serve(system, trace, prefill=PrefillConfig(model))
        assert result.requests_served == 2
        assert result.idle_seconds > 0
        # Request 1 prefills faster and decodes first.
        first, second = result.request_records
        assert second.first_token_s < first.first_token_s

    def test_chunked_prefill_rate_independent_of_step_stride(self):
        # step_stride is an accuracy/cost knob; chunked prefill must
        # advance chunk_tokens per decode *step*, not per evaluation, so
        # TTFT cannot change materially with the stride.
        system = ToySystem()
        model = LinearPrefillModel(per_token_s=1e-3)
        requests = (
            Request(request_id=0, prompt_tokens=8, output_tokens=64, arrival_s=0.0),
            Request(request_id=1, prompt_tokens=800, output_tokens=8, arrival_s=0.02),
        )
        trace = RequestTrace(dataset="toy", requests=requests)
        fine = serve(system, trace, prefill=PrefillConfig(model, chunk_tokens=64))
        coarse = serve(
            system,
            trace,
            step_stride=8,
            prefill=PrefillConfig(model, chunk_tokens=64),
        )
        ttft_fine = fine.request_records[1].ttft_s
        ttft_coarse = coarse.request_records[1].ttft_s
        # Residual difference is admission-time quantisation at stride
        # boundaries (one stride window = 8 * 0.01s), not prefill-rate
        # scaling -- the unfixed engine was ~2x (0.9s) off here.
        assert ttft_coarse == pytest.approx(ttft_fine, abs=8 * system.step_seconds)

    def test_engine_constructor_accepts_prefill(self):
        engine = ServingEngine(
            system=ToySystem(),
            prefill=PrefillConfig(LinearPrefillModel(per_token_s=1e-4)),
        )
        result = engine.run(single_request_trace(64))
        assert result.prefill_mode == "blocking"

    def test_latency_stats_expose_prefill_and_ttft_percentiles(self):
        system = ToySystem()
        model = LinearPrefillModel(per_token_s=1e-3)
        requests = tuple(
            Request(request_id=i, prompt_tokens=100 * (i + 1), output_tokens=4)
            for i in range(4)
        )
        result = serve(
            system,
            RequestTrace(dataset="toy", requests=requests),
            prefill=PrefillConfig(model),
        )
        stats = result.latency
        assert stats.prefill_mean_s == pytest.approx(0.1 * (1 + 2 + 3 + 4) / 4)
        assert stats.ttft_p50_s <= stats.ttft_p95_s <= stats.ttft_p99_s
        assert stats.tpot_p50_s <= stats.tpot_p95_s <= stats.tpot_p99_s


class CountingPrefillModel:
    """Forwards to a :class:`LinearPrefillModel`, logging each token count."""

    def __init__(self, model: LinearPrefillModel) -> None:
        self.model = model
        self.calls: list[int] = []

    def cumulative_seconds(self, tokens: int) -> float:
        self.calls.append(tokens)
        return self.model.cumulative_seconds(tokens)


def fold_chunk_charges(model, boundaries):
    """A request's prefill_s from its chunk boundaries, two calls per chunk."""
    charged = 0.0
    for done, upto in zip(boundaries, boundaries[1:]):
        charged += model.cumulative_seconds(upto) - model.cumulative_seconds(done)
    return charged


class TestChunkPricingCalls:
    def test_one_cumulative_call_per_chunk(self):
        # Three prompts share a 32-token budget per iteration in admission
        # order; each chunk is priced by one call at its new boundary.
        model = LinearPrefillModel(per_token_s=1e-3, per_token_sq_s=1e-7, base_s=0.05)
        counting = CountingPrefillModel(model)
        requests = tuple(
            Request(request_id=i, prompt_tokens=prompt, output_tokens=4)
            for i, prompt in enumerate((100, 70, 40))
        )
        result = serve(
            ToySystem(),
            RequestTrace(dataset="toy", requests=requests),
            prefill=PrefillConfig(counting, chunk_tokens=32),
        )
        assert counting.calls == [32, 64, 96, 100, 28, 60, 70, 22, 40]
        records = {record.request_id: record for record in result.request_records}
        assert records[0].prefill_s == fold_chunk_charges(model, [0, 32, 64, 96, 100])
        assert records[1].prefill_s == fold_chunk_charges(model, [0, 28, 60, 70])
        assert records[2].prefill_s == fold_chunk_charges(model, [0, 22, 40])
