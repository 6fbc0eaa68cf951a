"""PrefixCacheSpec plumbing: spec -> build -> run -> report -> CLI JSON.

The acceptance pin for PR 5: with the cache disabled, ``run(spec)`` is
bit-identical to the PR 4 behaviour; with it enabled on a seeded
multi-turn session-affinity trace, hit/miss counters flow end to end and
follow-up turns get measurably cheaper.
"""

import json

import pytest

from repro.api import (
    ArrivalSpec,
    ExperimentSpec,
    PrefillSpec,
    PrefixCacheSpec,
    RouterSpec,
    SystemSpec,
    TraceSpec,
    build,
    run,
)
from repro.api.cli import main
from repro.serving import PrefixCache

ENGINE_METRICS = (
    "total_output_tokens",
    "total_seconds",
    "steps",
    "average_batch_size",
    "peak_batch_size",
    "average_pim_utilization",
    "average_capacity_utilization",
    "requests_served",
    "requests_dropped",
    "makespan_s",
    "idle_seconds",
    "prefill_seconds_total",
    "latency",
)


def multi_turn_spec(**prefix_cache) -> ExperimentSpec:
    """Seven 4-turn conversations on a 4-replica fleet, chunked prefill.

    Seven sessions on four replicas on purpose: a session count that is a
    multiple of the replica count would let round-robin fake perfect
    affinity (session ``s`` of turn ``k`` lands on replica ``(k*N + s) %
    R = s % R``).
    """
    return ExperimentSpec(
        name="prefix-cache-multi-turn",
        system=SystemSpec(kind="pim-only", num_modules=1),
        prefill=PrefillSpec(mode="chunked", chunk_tokens=256),
        prefix_cache=PrefixCacheSpec(**prefix_cache),
        trace=TraceSpec(
            source="multi-turn",
            num_requests=28,
            num_sessions=7,
            turns_per_session=4,
            prompt_tokens=1024,
            followup_tokens=128,
            output_tokens=96,
            turn_gap_s=40.0,
        ),
        router=RouterSpec(replicas=4, policy="session-affinity"),
        seed=7,
        step_stride=4,
    )


class TestSpecPlumbing:
    def test_round_trips_through_json(self):
        spec = multi_turn_spec(enabled=True, capacity_tokens=4096)
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert spec.prefix_cache.enabled
        assert spec.prefix_cache.capacity_tokens == 4096

    def test_defaults_to_disabled(self):
        assert ExperimentSpec().prefix_cache == PrefixCacheSpec(
            enabled=False, capacity_tokens=None
        )

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="prefix_cache.enabled"):
            PrefixCacheSpec(enabled="yes")
        with pytest.raises(ValueError, match="prefix_cache.capacity_tokens"):
            PrefixCacheSpec(enabled=True, capacity_tokens=0)
        with pytest.raises(ValueError, match="unknown field"):
            ExperimentSpec.from_dict({"prefix_cache": {"capacity": 10}})

    def test_trace_spec_validates_multi_turn_fields(self):
        with pytest.raises(ValueError, match="trace.turns_per_session"):
            TraceSpec(turns_per_session=-1)
        with pytest.raises(ValueError, match="trace.followup_tokens"):
            TraceSpec(followup_tokens=0)
        with pytest.raises(ValueError, match="trace.turn_gap_s"):
            TraceSpec(turn_gap_s=-1.0)

    def test_turn_gap_and_poisson_are_mutually_exclusive(self):
        # The Poisson process re-stamps every arrival, which would
        # silently discard the deterministic turn spacing the user asked
        # for (and deflate hit rates); the conflict must fail fast.
        with pytest.raises(ValueError, match="mutually exclusive"):
            ExperimentSpec(
                trace=TraceSpec(turn_gap_s=40.0),
                arrival=ArrivalSpec(process="poisson", rate_rps=0.5),
            )
        with pytest.raises(ValueError, match="mutually exclusive"):
            multi_turn_spec().with_overrides(
                {"arrival.process": "poisson", "arrival.rate_rps": 0.5}
            )
        # Poisson multi-turn is still reachable by dropping the gap.
        ExperimentSpec(
            trace=TraceSpec(
                source="multi-turn", num_requests=4, num_sessions=2,
                turns_per_session=2, turn_gap_s=0.0,
            ),
            arrival=ArrivalSpec(process="poisson", rate_rps=0.5),
        )

    def test_num_requests_must_match_sessions_times_turns(self):
        # A silently ignored num_requests would make sweeps over it
        # meaningless and the report's num_requests wrong.
        spec = multi_turn_spec().with_overrides({"trace.num_requests": 100})
        with pytest.raises(ValueError, match=r"num_requests must equal"):
            build(spec)
        report = run(multi_turn_spec())
        assert report.num_requests == 28 == report.requests_served

    def test_multi_turn_source_requires_sessions_and_turns(self):
        spec = multi_turn_spec().with_overrides({"trace.num_sessions": 0})
        with pytest.raises(ValueError, match="num_sessions"):
            build(spec)
        spec = multi_turn_spec().with_overrides({"trace.turns_per_session": 0})
        with pytest.raises(ValueError, match="turns_per_session"):
            build(spec)

    def test_build_attaches_independent_caches_per_replica(self):
        built = build(multi_turn_spec(enabled=True, capacity_tokens=8192))
        caches = [engine.prefix_cache for engine in built.engines]
        assert all(isinstance(cache, PrefixCache) for cache in caches)
        assert len({id(cache) for cache in caches}) == len(caches)
        assert caches[0].capacity_tokens == 8192

    def test_build_disabled_attaches_nothing(self):
        built = build(multi_turn_spec())
        assert all(engine.prefix_cache is None for engine in built.engines)

    def test_multi_turn_source_keeps_its_session_layout(self):
        built = build(multi_turn_spec())
        sessions = [request.session for request in built.trace.requests]
        assert all(session is not None for session in sessions)
        # Turn-major order: the first num_sessions requests are turn 0.
        assert sessions[:7] == list(range(7))
        # Prompts accumulate within a session across turns.
        by_session = {}
        for request in built.trace.requests:
            by_session.setdefault(request.session, []).append(request)
        for turns in by_session.values():
            prompts = [turn.prompt_tokens for turn in turns]
            assert prompts == sorted(prompts)
            assert prompts[0] < prompts[-1]


class TestDisabledParity:
    def test_disabled_cache_is_bit_identical_to_no_cache_field(self):
        # The acceptance pin: prefix_cache.enabled=false must reproduce
        # the PR 4 arithmetic exactly -- same spec modulo the new sub-spec.
        spec = multi_turn_spec()
        explicit = run(spec.with_overrides({"prefix_cache.enabled": False}))
        default = run(spec)
        for left, right in zip(explicit.replica_results, default.replica_results, strict=True):
            for metric in ENGINE_METRICS:
                assert getattr(left, metric) == getattr(right, metric), metric
        assert explicit.latency == default.latency

    def test_disabled_cache_matches_direct_engine_run_exactly(self):
        # Single-engine spec vs a hand-built ServingEngine with no
        # prefix-cache argument at all (the pre-PR construction).
        from repro.serving import FCFSAdmission, ServingEngine
        from repro.serving.prefill import PrefillConfig, prefill_model_for

        spec = ExperimentSpec(
            name="parity",
            system=SystemSpec(kind="pim-only", num_modules=1),
            prefill=PrefillSpec(mode="chunked", chunk_tokens=256),
            trace=TraceSpec(
                source="multi-turn",
                num_requests=9,
                num_sessions=3,
                turns_per_session=3,
                prompt_tokens=512,
                followup_tokens=64,
                output_tokens=64,
                turn_gap_s=30.0,
            ),
            seed=11,
            step_stride=4,
        )
        report = run(spec)
        built = build(spec)
        direct = ServingEngine(
            system=built.system,
            admission=FCFSAdmission(),
            step_stride=4,
            prefill=PrefillConfig(
                model=prefill_model_for(built.system), chunk_tokens=256
            ),
        ).run(built.trace)
        for metric in ENGINE_METRICS:
            assert getattr(report.engine_result, metric) == getattr(direct, metric), metric
        assert report.prefix_hits == 0
        assert not report.prefix_cache_enabled

    def test_enabled_cache_on_sessionless_trace_changes_nothing(self):
        # No sessions -> no lookups -> identical arithmetic even enabled.
        base = ExperimentSpec(
            name="sessionless",
            system=SystemSpec(kind="pim-only", num_modules=1),
            prefill=PrefillSpec(mode="blocking"),
            trace=TraceSpec(source="synthetic", num_requests=8, prompt_tokens=256,
                            output_tokens=32),
            seed=3,
            step_stride=4,
        )
        off = run(base)
        on = run(base.with_overrides({"prefix_cache.enabled": True}))
        for metric in ENGINE_METRICS:
            assert getattr(on.engine_result, metric) == getattr(
                off.engine_result, metric
            ), metric
        assert on.prefix_cache_enabled
        assert on.prefix_hits == on.prefix_misses == 0


class TestEnabledOnMultiTurn:
    def test_counters_flow_spec_to_report(self):
        report = run(multi_turn_spec(enabled=True))
        assert report.prefix_cache_enabled
        assert report.prefix_hits > 0
        assert report.prefix_misses > 0
        assert report.prefix_hit_tokens > 0
        assert 0.0 < report.prefix_hit_rate < 1.0
        # The fleet view surfaces per-replica hit rates.
        rates = report.fleet.prefix_hit_rates
        assert len(rates) == 4
        assert any(rate > 0.0 for rate in rates)

    def test_session_affinity_beats_round_robin_on_hits_and_ttft(self):
        affinity = run(multi_turn_spec(enabled=True))
        round_robin = run(
            multi_turn_spec(enabled=True).with_overrides(
                {"router.policy": "round-robin"}
            )
        )
        # Affinity keeps each session's prefix on its replica; round-robin
        # scatters turns across caches that never hold the session prefix.
        assert affinity.prefix_hit_tokens > round_robin.prefix_hit_tokens
        assert affinity.prefix_hit_rate > round_robin.prefix_hit_rate
        assert affinity.ttft_mean_s < round_robin.ttft_mean_s
        assert affinity.ttft_p95_s < round_robin.ttft_p95_s

    def test_cache_enabled_cuts_ttft_under_affinity(self):
        on = run(multi_turn_spec(enabled=True))
        off = run(multi_turn_spec())
        assert on.ttft_mean_s < off.ttft_mean_s
        assert on.ttft_p95_s < off.ttft_p95_s
        assert on.total_output_tokens == off.total_output_tokens

    def test_identical_specs_reproduce_identical_reports(self):
        # Determinism under a fixed seed: trace, sessions, arrivals and
        # cache behaviour all derive from spec.seed.
        first = run(multi_turn_spec(enabled=True, capacity_tokens=8192))
        second = run(multi_turn_spec(enabled=True, capacity_tokens=8192))
        assert first.prefix_hits == second.prefix_hits
        assert first.prefix_misses == second.prefix_misses
        assert first.prefix_hit_tokens == second.prefix_hit_tokens
        assert first.latency == second.latency
        assert first.makespan_s == second.makespan_s

    def test_capacity_pressure_evicts_sessions(self):
        roomy = run(multi_turn_spec(enabled=True))
        tight = run(multi_turn_spec(enabled=True, capacity_tokens=1200))
        assert roomy.prefix_evictions == 0
        assert tight.prefix_evictions > 0
        assert tight.prefix_hit_tokens < roomy.prefix_hit_tokens

    def test_report_dict_is_json_safe_and_carries_counters(self):
        payload = run(multi_turn_spec(enabled=True)).to_dict()
        metrics = payload["metrics"]
        assert metrics["prefix_cache_enabled"] is True
        assert metrics["prefix_hits"] > 0
        assert metrics["prefix_hit_rate"] > 0.0
        assert metrics["prefix_hit_tokens"] > 0
        assert "prefix_hit_rate" in payload["replicas"][0]
        assert sum(r["prefix_hits"] for r in payload["replicas"]) == metrics["prefix_hits"]
        json.dumps(payload)


class TestCLI:
    def test_cli_json_carries_prefix_counters(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(multi_turn_spec(enabled=True).to_json())
        assert main(["run", str(spec_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["prefix_cache"]["enabled"] is True
        assert payload["metrics"]["prefix_hits"] > 0
        assert payload["metrics"]["prefix_hit_rate"] > 0.0

    def test_cli_set_toggles_the_cache(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(multi_turn_spec().to_json())
        assert main(
            [
                "run",
                str(spec_path),
                "--set",
                "prefix_cache.enabled=true",
                "--set",
                "prefix_cache.capacity_tokens=8192",
                "--format",
                "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["prefix_cache"]["capacity_tokens"] == 8192
        assert payload["metrics"]["prefix_hits"] > 0

    def test_validate_rejects_bad_capacity(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(multi_turn_spec().to_json())
        assert (
            main(
                [
                    "validate",
                    str(spec_path),
                    "--set",
                    "prefix_cache.capacity_tokens=0",
                ]
            )
            == 2
        )
        assert "prefix_cache.capacity_tokens" in capsys.readouterr().err

    def test_list_traces_includes_multi_turn(self, capsys):
        assert main(["list", "traces"]) == 0
        assert "multi-turn" in capsys.readouterr().out
