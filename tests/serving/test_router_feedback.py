"""EWMA feedback tests: measured TPOT sharpens dispatch across runs."""

from dataclasses import dataclass

import pytest

from repro.serving.engine import ServingEngine
from repro.serving.interfaces import StepResult
from repro.serving.router import LeastOutstandingRouting, ReplicaRouter
from repro.workloads.traces import Request, RequestTrace


@dataclass
class BatchSlowSystem:
    """Fast when probed (batch of one), slow while actually serving load.

    The router's dispatch-time probe prices a single-request decode step,
    which this system answers quickly regardless of ``slow_factor`` --
    exactly the blind spot the EWMA feedback loop exists to close: only
    *measured* TPOT from a real run reveals the slowdown.
    """

    slow_factor: float = 1.0
    kv_capacity_bytes: int = 1_000_000
    kv_bytes_per_token: int = 1
    max_context_tokens: int = 4096
    base_step_s: float = 0.01

    @property
    def dynamic_memory(self) -> bool:
        return False

    @property
    def total_pim_channels(self) -> int:
        return 0

    def decode_step(self, context_lengths) -> StepResult:
        if not context_lengths:
            return StepResult(seconds=0.0, pim_utilization=0.0)
        if len(context_lengths) <= 1:
            return StepResult(seconds=self.base_step_s, pim_utilization=0.0)
        return StepResult(seconds=self.base_step_s * self.slow_factor, pim_utilization=0.0)


def heterogeneous_router(ewma_alpha=0.5):
    fast = ServingEngine(system=BatchSlowSystem(slow_factor=1.0))
    slow = ServingEngine(system=BatchSlowSystem(slow_factor=5.0))
    return ReplicaRouter(
        replicas=(fast, slow),
        policy=LeastOutstandingRouting(),
        ewma_alpha=ewma_alpha,
    )


def burst_trace(num_requests=10, output=8):
    return RequestTrace(
        dataset="burst",
        requests=tuple(
            Request(
                request_id=index,
                prompt_tokens=64,
                output_tokens=output,
                arrival_s=index * 1e-6,  # tight burst: nothing drains between picks
            )
            for index in range(num_requests)
        ),
    )


class TestEWMAFeedback:
    def test_feedback_sharpens_placement_on_heterogeneous_fleet(self):
        router = heterogeneous_router()
        trace = burst_trace()

        # First dispatch: the probe sees two equally fast replicas, so
        # least-outstanding splits the burst evenly.
        first = router.dispatch(trace)
        assert first.count(0) == first.count(1) == 5

        # Serving the trace measures the truth: replica 1 is 5x slower
        # under load.  The EWMA folds that into the estimates...
        router.run(trace)
        estimates = router.service_time_estimates
        assert estimates[1] > estimates[0] > 0.0

        # ...so the next dispatch leans on the fast replica.
        second = router.dispatch(trace)
        assert second.count(0) > first.count(0)
        assert second.count(1) < first.count(1)

    def test_estimates_converge_over_repeated_runs(self):
        router = heterogeneous_router(ewma_alpha=0.5)
        trace = burst_trace()
        imbalances = []
        for _ in range(3):
            fleet = router.run(trace)
            imbalances.append(fleet.load_imbalance)
        # Feedback strictly reduces the busy-time imbalance of the first,
        # evenly split run.
        assert imbalances[-1] < imbalances[0]

    def test_zero_alpha_disables_feedback(self):
        router = heterogeneous_router(ewma_alpha=0.0)
        trace = burst_trace()
        first = router.dispatch(trace)
        router.run(trace)
        assert router.service_time_estimates == {}
        assert router.dispatch(trace) == first

    def test_homogeneous_fleet_unaffected_by_feedback(self):
        def engine():
            return ServingEngine(system=BatchSlowSystem(slow_factor=2.0))

        router = ReplicaRouter.homogeneous(
            engine, 2, policy=LeastOutstandingRouting(), ewma_alpha=0.5
        )
        trace = burst_trace()
        first = router.dispatch(trace)
        router.run(trace)
        # Both replicas measure the same TPOT: placement stays balanced.
        assert router.dispatch(trace) == first

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            heterogeneous_router(ewma_alpha=1.5)
        with pytest.raises(ValueError):
            heterogeneous_router(ewma_alpha=-0.1)

    def test_single_token_requests_still_learn_estimates(self):
        # Regression: requests with output_tokens == 1 report TPOT 0 (no
        # inter-token gap), which used to skip the EWMA update entirely --
        # a fleet serving only single-token requests never learned and
        # stale estimates persisted forever.  The fallback folds the
        # measured mean decode-step latency instead.
        router = heterogeneous_router(ewma_alpha=0.5)
        trace = burst_trace(output=1)
        router.run(trace)
        estimates = router.service_time_estimates
        assert estimates, "single-token fleet must still learn step estimates"
        assert all(value > 0.0 for value in estimates.values())
        # The slow replica's measured step latency dominates its estimate.
        assert estimates[1] > estimates[0]

    def test_fallback_excludes_chunked_prefill_from_step_estimate(self):
        # Regression: the fallback once divided *busy* seconds by decode
        # steps, but busy time includes chunked-prefill work -- on a
        # prompt-heavy single-token trace that inflated the learned
        # estimate by orders of magnitude and inverted dispatch.
        from repro.serving.prefill import LinearPrefillModel, PrefillConfig

        base_step = BatchSlowSystem().base_step_s
        engine = ServingEngine(
            system=BatchSlowSystem(),
            prefill=PrefillConfig(
                model=LinearPrefillModel(per_token_s=0.01), chunk_tokens=64
            ),
        )
        router = ReplicaRouter(replicas=(engine,), ewma_alpha=0.5)
        trace = RequestTrace(
            dataset="prompt-heavy",
            requests=tuple(
                Request(
                    request_id=index, prompt_tokens=1024, output_tokens=1,
                    arrival_s=index * 60.0,
                )
                for index in range(3)
            ),
        )
        router.run(trace)
        estimate = router.service_time_estimates[0]
        # Each prompt costs ~10.24s of prefill vs a 0.01s decode step; a
        # busy-time estimate would land near 10s.
        assert 0.0 < estimate <= 2 * base_step

    def test_empty_replica_keeps_no_estimate(self):
        # A replica that served nothing has no measurement to fold in.
        router = heterogeneous_router(ewma_alpha=0.5)
        trace = RequestTrace(
            dataset="single",
            requests=(Request(request_id=0, prompt_tokens=8, output_tokens=1),),
        )
        router.run(trace)
        assert set(router.service_time_estimates) == {0}

    def test_ewma_blends_successive_measurements(self):
        router = heterogeneous_router(ewma_alpha=0.5)
        trace = burst_trace()
        router.run(trace)
        after_first = router.service_time_estimates
        router.run(trace)
        after_second = router.service_time_estimates
        # The second run shifts load, so measured TPOTs move and the EWMA
        # blends rather than overwrites.
        for index in after_first:
            assert after_second[index] > 0.0
