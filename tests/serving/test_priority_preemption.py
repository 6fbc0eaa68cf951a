"""Priority-aware preemption policies and the cross-tier anti-starvation guard."""

import pytest

from repro.api.build import run
from repro.api.spec import ExperimentSpec, PreemptionSpec, SystemSpec, TierSpec, TraceSpec
from repro.serving.engine import serve
from repro.serving.preemption import (
    EvictLRU,
    EvictPriorityLargest,
    EvictPriorityLRU,
    EvictPriorityYoungest,
    PreemptionCandidate,
    PreemptionConfig,
)
from repro.workloads.traces import Request, RequestTrace
from tests.serving.test_preemption import TinyPagedSystem


def candidate(request_id, priority=0, preemptions=0, **kwargs):
    defaults = dict(context_tokens=10, admitted_s=0.0, last_decode_s=0.0)
    defaults.update(kwargs)
    return PreemptionCandidate(
        request_id=request_id, priority=priority, preemptions=preemptions, **defaults
    )


class TestPriorityPolicySelection:
    CANDIDATES = (
        candidate(0, priority=5, context_tokens=99, admitted_s=0.0, last_decode_s=0.0),
        candidate(1, priority=0, context_tokens=10, admitted_s=1.0, last_decode_s=3.0),
        candidate(2, priority=0, context_tokens=50, admitted_s=2.0, last_decode_s=1.0),
    )

    def test_all_prefer_the_lowest_priority_class(self):
        # Candidate 0 is by every base discipline the natural victim
        # (largest, least recent decode, earliest admitted) -- but it is
        # premium, so every priority-aware policy must spare it.
        for policy in (
            EvictPriorityLRU(),
            EvictPriorityLargest(),
            EvictPriorityYoungest(),
        ):
            assert policy.select(self.CANDIDATES) != 0

    def test_base_discipline_breaks_ties_inside_the_class(self):
        assert EvictPriorityLRU().select(self.CANDIDATES) == 2  # least recent decode
        assert EvictPriorityLargest().select(self.CANDIDATES) == 2  # most context
        assert EvictPriorityYoungest().select(self.CANDIDATES) == 2  # latest admitted

    def test_empty_candidates_refuse(self):
        for policy in (
            EvictPriorityLRU(),
            EvictPriorityLargest(),
            EvictPriorityYoungest(),
        ):
            assert policy.select(()) is None

    def test_uniform_priorities_match_the_blind_policies(self):
        # With a flat trace the priority-aware variants degrade to their
        # blind counterparts, so untiered runs keep identical victims.
        flat = tuple(
            candidate(i, admitted_s=float(i), last_decode_s=float(3 - i))
            for i in range(4)
        )
        assert EvictPriorityLRU().select(flat) == EvictLRU().select(flat)

    def test_registered_in_the_preemption_registry(self):
        from repro.api.registry import PREEMPTION_POLICIES

        for name in (
            "evict-priority-lru",
            "evict-priority-largest",
            "evict-priority-youngest",
        ):
            assert name in PREEMPTION_POLICIES.names()


class TestStarvationGuard:
    def test_eligible_passthrough_without_limit(self):
        config = PreemptionConfig(policy=EvictPriorityLRU())
        candidates = (candidate(0, preemptions=99),)
        assert config.eligible(candidates) is candidates

    def test_eligible_withholds_over_limit_candidates(self):
        config = PreemptionConfig(policy=EvictPriorityLRU(), starvation_limit=2)
        fresh = candidate(0, preemptions=1)
        beaten = candidate(1, preemptions=2)
        assert list(config.eligible((fresh, beaten))) == [fresh]

    def test_eligible_falls_back_when_everyone_is_over_limit(self):
        # A grow must never fail purely because of the guard.
        config = PreemptionConfig(policy=EvictPriorityLRU(), starvation_limit=1)
        beaten = (candidate(0, preemptions=1), candidate(1, preemptions=3))
        assert list(config.eligible(beaten)) == list(beaten)

    def test_invalid_limits_rejected(self):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ValueError, match="starvation_limit"):
                PreemptionConfig(policy=EvictPriorityLRU(), starvation_limit=bad)


class _BullyPolicy:
    """Always beats the lowest request id it is offered (worst-case fairness)."""

    name = "evict-lru"  # masquerade as a registered name for the engine

    def select(self, candidates):
        if not candidates:
            return None
        return min(candidate.request_id for candidate in candidates)


class TestEngineStarvationGuard:
    # Capacity for three resident 12-token requests, so the policy sees
    # multi-candidate lists and the guard has victims to choose between.
    def system(self):
        from tests.serving.test_preemption import CHUNK

        return TinyPagedSystem(kv_capacity_bytes=24 * CHUNK)

    def pressure_trace(self, n=8):
        return RequestTrace(
            dataset="pressure",
            requests=tuple(
                Request(request_id=index, prompt_tokens=2, output_tokens=10)
                for index in range(n)
            ),
        )

    def run_bully(self, limit):
        result = serve(
            self.system(),
            self.pressure_trace(),
            preemption=PreemptionConfig(policy=_BullyPolicy(), starvation_limit=limit),
        )
        return {record.request_id: record.preemptions for record in result.request_records}

    def test_guard_redistributes_a_concentrating_policy(self):
        unguarded = self.run_bully(None)
        guarded = self.run_bully(1)
        # The guard withholds already-beaten victims, so the bully must
        # spread its evictions over strictly more requests without beating
        # any single request harder.
        assert max(guarded.values()) <= max(unguarded.values())
        assert len([c for c in guarded.values() if c > 0]) > len(
            [c for c in unguarded.values() if c > 0]
        )

    def test_engine_threads_preemption_counts_to_the_policy(self):
        def offers(limit):
            seen: list[tuple[int, ...]] = []

            class Recorder(_BullyPolicy):
                def select(self, candidates):
                    seen.append(tuple(c.preemptions for c in candidates))
                    return super().select(candidates)

            serve(
                self.system(),
                self.pressure_trace(),
                preemption=PreemptionConfig(policy=Recorder(), starvation_limit=limit),
            )
            return seen

        def mixed(counts):
            return len({count >= 1 for count in counts}) > 1

        # Without the guard the policy sees fresh and already-beaten
        # victims side by side (proving counts are threaded through)...
        assert any(mixed(counts) for counts in offers(None))
        # ...and with limit=1 such mixed lists never reach the policy: the
        # beaten candidates are withheld while fresh ones remain, and only
        # the all-beaten fallback offers them again.
        assert not any(mixed(counts) for counts in offers(1))


def tiered_pressure_spec(policy, limit=None, num_requests=18):
    return ExperimentSpec(
        name=f"priority-pressure-{policy}",
        system=SystemSpec(kind="pim-only", num_modules=1),
        trace=TraceSpec(
            source="synthetic",
            num_requests=num_requests,
            prompt_tokens=256,
            output_tokens=512,
        ),
        tiers=(
            TierSpec(
                name="premium",
                priority=5,
                share=0.25,
                ttft_deadline_s=0.5,
                tpot_deadline_s=0.035,
            ),
            TierSpec(name="best-effort"),
        ),
        preemption=PreemptionSpec(
            policy=policy, mode="swap", swap_bandwidth_gbps=64.0, starvation_limit=limit
        ),
        seed=5,
        step_stride=4,
    )


class TestPremiumProtection:
    def test_priority_aware_policy_spares_premium_requests(self):
        blind = run(tiered_pressure_spec("evict-lru"))
        aware = run(tiered_pressure_spec("evict-priority-lru"))
        # Equal load, equal completed work.
        assert aware.requests_served == blind.requests_served
        assert aware.total_output_tokens == blind.total_output_tokens
        # Blind LRU pages premium out with everyone else; the tier-aware
        # policy shifts that pressure onto best-effort entirely.
        assert blind.tier_report("premium").preemptions > 0
        assert aware.tier_report("premium").preemptions == 0
        assert (
            aware.tier_report("premium").goodput
            > blind.tier_report("premium").goodput
        )

    def test_premium_flood_does_not_zero_best_effort_goodput(self):
        # The satellite scenario: premium floods 3/4 of a saturated module.
        # With the fairness knob on, best-effort must still get work done.
        spec = ExperimentSpec(
            name="premium-flood",
            system=SystemSpec(kind="pim-only", num_modules=1),
            trace=TraceSpec(
                source="synthetic",
                num_requests=24,
                prompt_tokens=256,
                output_tokens=512,
            ),
            tiers=(
                TierSpec(name="premium", priority=5, share=0.75),
                TierSpec(name="best-effort"),
            ),
            preemption=PreemptionSpec(
                policy="evict-priority-lru",
                mode="swap",
                swap_bandwidth_gbps=64.0,
                starvation_limit=2,
            ),
            seed=5,
            step_stride=4,
        )
        report = run(spec)
        best_effort = report.tier_report("best-effort")
        assert best_effort.preemptions > 0  # the flood really pressures the tier
        assert best_effort.goodput > 0.0
        assert report.tier_report("premium").goodput > 0.0
