"""SLO tiers: TierSpec validation, trace tagging, tiered reports, overrides."""

import json

import pytest

from repro.api import ExperimentSpec, TierSpec, run
from repro.api.spec import (
    SystemSpec,
    TraceSpec,
    apply_override,
)
from repro.workloads.traces import (
    assign_tiers,
    generate_trace,
    random_sessions,
)
from repro.workloads.datasets import get_dataset


def tiered_spec(**overrides) -> ExperimentSpec:
    kwargs = dict(
        name="tiered",
        system=SystemSpec(kind="pim-only", num_modules=1),
        trace=TraceSpec(
            source="synthetic", num_requests=12, prompt_tokens=256, output_tokens=32
        ),
        tiers=(
            TierSpec(
                name="premium",
                priority=5,
                share=0.25,
                ttft_deadline_s=2.0,
                tpot_deadline_s=0.5,
            ),
            TierSpec(name="best-effort"),
        ),
        step_stride=4,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestTierSpecValidation:
    def test_share_out_of_range(self):
        for bad in (0, -0.25, 1.5, True):
            with pytest.raises(ValueError, match=r"share must be within \(0, 1\]"):
                TierSpec(share=bad)

    def test_sessions_must_be_non_empty_non_negative(self):
        for bad in ([], [-1], ["a"], [0.5]):
            with pytest.raises(ValueError, match="sessions must be a non-empty list"):
                TierSpec(sessions=bad)

    def test_share_and_sessions_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="share and sessions are mutually exclusive"):
            TierSpec(share=0.5, sessions=(0,))

    def test_deadlines_must_be_positive_finite(self):
        for field in ("ttft_deadline_s", "tpot_deadline_s"):
            for bad in (0, -1.0, float("inf"), float("nan")):
                with pytest.raises(ValueError, match=f"{field} must be a positive"):
                    TierSpec(**{field: bad})

    def test_catch_all_property(self):
        assert TierSpec().is_catch_all
        assert not TierSpec(share=0.5).is_catch_all
        assert not TierSpec(sessions=(1,)).is_catch_all


class TestCrossTierValidation:
    def test_duplicate_names_name_both_indices(self):
        with pytest.raises(
            ValueError, match=r"tiers\[1\].name 'premium' duplicates tiers\[0\]"
        ):
            tiered_spec(
                tiers=(TierSpec(name="premium", share=0.5), TierSpec(name="premium"))
            )

    def test_shares_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match=r"tiers\[\*\].share values must sum"):
            tiered_spec(
                tiers=(
                    TierSpec(name="a", share=0.7),
                    TierSpec(name="b", share=0.7),
                )
            )

    def test_at_most_one_catch_all(self):
        with pytest.raises(ValueError, match=r"tiers\[1\] and tiers\[0\] are both"):
            tiered_spec(tiers=(TierSpec(name="a"), TierSpec(name="b")))

    def test_session_claimed_twice_names_both_tiers(self):
        with pytest.raises(
            ValueError, match=r"tiers\[1\].sessions lists session 3 already"
        ):
            tiered_spec(
                tiers=(
                    TierSpec(name="a", sessions=(3,)),
                    TierSpec(name="b", sessions=(3, 4)),
                )
            )

    def test_session_tier_requires_sessions_in_trace(self):
        spec = tiered_spec(tiers=(TierSpec(name="vip", sessions=(0,)),))
        with pytest.raises(ValueError, match=r"tiers\[0\].sessions"):
            spec.validate()

    def test_from_dict_error_names_tier_index_and_field(self):
        data = tiered_spec().to_dict()
        data["tiers"][1]["share"] = 7
        with pytest.raises(ValueError, match=r"tiers\[1\].share must be within"):
            ExperimentSpec.from_dict(data)


class TestRoundTripAndHash:
    def test_tiered_spec_round_trips(self):
        spec = tiered_spec(
            tiers=(
                TierSpec(name="vip", priority=9, sessions=(1, 3)),
                TierSpec(name="bulk", share=0.5, tpot_deadline_s=0.1),
                TierSpec(name="rest"),
            ),
            trace=TraceSpec(source="synthetic", num_requests=12, num_sessions=4),
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_untiered_dict_has_no_tiers_key(self):
        assert "tiers" not in ExperimentSpec().to_dict()

    def test_untiered_spec_hash_unchanged_by_tier_feature(self):
        # The tiers field must not perturb canonical JSON of untiered specs,
        # so spec hashes (report provenance) survive the API addition.
        spec = ExperimentSpec()
        assert spec.spec_hash == ExperimentSpec.from_dict(spec.to_dict()).spec_hash
        assert tiered_spec().spec_hash != tiered_spec(seed=1).spec_hash


class TestApplyOverrideListPaths:
    def test_set_tier_field_by_index(self):
        data = tiered_spec().to_dict()
        apply_override(data, "tiers.0.priority", 7)
        assert ExperimentSpec.from_dict(data).tiers[0].priority == 7

    def test_append_tier_at_end(self):
        data = tiered_spec(
            tiers=(TierSpec(name="a", share=0.25), TierSpec(name="b", share=0.25))
        ).to_dict()
        apply_override(data, "tiers.2.name", "c")
        assert data["tiers"][2] == {"name": "c"}

    def test_index_past_end_is_an_error(self):
        data = tiered_spec().to_dict()
        with pytest.raises(ValueError, match="tiers.5"):
            apply_override(data, "tiers.5.name", "x")

    def test_non_numeric_component_into_list_is_an_error(self):
        data = tiered_spec().to_dict()
        with pytest.raises(ValueError, match="must be a list index"):
            apply_override(data, "tiers.premium.priority", 7)


class TestAssignTiers:
    def trace(self, n=12, seed=0, sessions=0):
        trace = generate_trace(
            get_dataset("qmsum"), num_requests=n, seed=seed, output_tokens=16
        )
        if sessions:
            trace = random_sessions(trace, num_sessions=sessions, seed=seed)
        return trace

    def test_share_quarter_tags_every_fourth_request(self):
        tagged = assign_tiers(self.trace(), (TierSpec(name="p", share=0.25),))
        tiers = [request.tier for request in tagged.requests]
        assert [t == "p" for t in tiers] == [i % 4 == 0 for i in range(12)]

    def test_session_predicate_wins_over_share(self):
        trace = self.trace(sessions=3)
        vip_sessions = (0,)
        tagged = assign_tiers(
            trace,
            (
                TierSpec(name="vip", priority=9, sessions=vip_sessions),
                TierSpec(name="bulk", share=0.5),
            ),
        )
        for request in tagged.requests:
            if request.session in vip_sessions:
                assert request.tier == "vip" and request.priority == 9

    def test_catch_all_takes_leftovers_and_none_leaves_untiered(self):
        with_catch_all = assign_tiers(
            self.trace(), (TierSpec(name="p", share=0.25), TierSpec(name="rest"))
        )
        assert all(request.tier is not None for request in with_catch_all.requests)
        without = assign_tiers(self.trace(), (TierSpec(name="p", share=0.25),))
        assert sum(request.tier is None for request in without.requests) == 9

    def test_deadlines_are_stamped_onto_requests(self):
        tagged = assign_tiers(
            self.trace(),
            (TierSpec(name="p", share=0.25, ttft_deadline_s=1.0, tpot_deadline_s=0.1),),
        )
        tagged_requests = [r for r in tagged.requests if r.tier == "p"]
        assert all(r.ttft_deadline_s == 1.0 for r in tagged_requests)
        assert all(r.tpot_deadline_s == 0.1 for r in tagged_requests)


class TestTieredReports:
    def test_report_carries_per_tier_sections(self):
        report = run(tiered_spec())
        assert [tier.name for tier in report.tier_reports] == ["premium", "best-effort"]
        premium = report.tier_report("premium")
        assert premium.num_requests == 3 and premium.priority == 5
        assert report.tier_report("best-effort").num_requests == 9
        with pytest.raises(KeyError, match="no tier named 'gold'"):
            report.tier_report("gold")

    def test_to_dict_gains_goodput_and_tiers_sections(self):
        data = run(tiered_spec()).to_dict()
        assert set(data["metrics"]["tiers"]) == {"premium", "best-effort"}
        premium = data["metrics"]["tiers"]["premium"]
        for key in (
            "priority",
            "num_requests",
            "goodput",
            "goodput_rps",
            "ttft_attainment",
            "tpot_attainment",
            "preemptions",
            "latency",
        ):
            assert key in premium
        assert 0.0 <= data["metrics"]["goodput"] <= 1.0
        json.dumps(data)  # JSON-safe

    def test_untiered_report_schema_is_unchanged(self):
        data = run(tiered_spec(tiers=())).to_dict()
        assert "tiers" not in data["metrics"]
        assert "goodput" not in data["metrics"]
        assert "tiers" not in data["spec"]

    def test_leftover_requests_land_in_untiered_bucket(self):
        report = run(tiered_spec(tiers=(TierSpec(name="premium", share=0.25),)))
        assert [tier.name for tier in report.tier_reports] == ["premium", "untiered"]
        assert report.tier_report("untiered").num_requests == 9

    def test_summary_table_appends_tier_rows(self):
        tiered = run(tiered_spec()).summary_table()
        assert "SLO tiers" in tiered and "premium" in tiered
        assert "SLO tiers" not in run(tiered_spec(tiers=())).summary_table()

    def test_goodput_counts_unfinished_requests_against_the_tier(self):
        # An impossible TPOT deadline fails every premium request without
        # changing how many finish.
        strict = run(
            tiered_spec(
                tiers=(
                    TierSpec(name="premium", share=0.25, tpot_deadline_s=1e-9),
                    TierSpec(name="best-effort"),
                )
            )
        )
        premium = strict.tier_report("premium")
        assert premium.requests_finished == premium.num_requests
        assert premium.goodput == 0.0 and premium.tpot_attainment == 0.0
        assert strict.tier_report("best-effort").goodput == 1.0


class TestCLI:
    def test_list_tiers_names_the_spec_fields(self, capsys):
        from repro.api.cli import main

        assert main(["list", "tiers"]) == 0
        out = capsys.readouterr().out
        for field in ("name", "priority", "share", "sessions", "ttft_deadline_s"):
            assert field in out

    def test_set_tier_field_error_names_index_and_field(self, tmp_path, capsys):
        from repro.api.cli import main

        path = tmp_path / "spec.json"
        path.write_text(tiered_spec().to_json(), encoding="utf-8")
        assert main(["validate", str(path), "--set", "tiers.1.share=7"]) == 2
        assert "tiers[1].share must be within (0, 1]" in capsys.readouterr().err

    def test_set_appends_and_edits_tiers(self, tmp_path, capsys):
        from repro.api.cli import main

        path = tmp_path / "spec.json"
        path.write_text(
            tiered_spec(tiers=(TierSpec(name="premium", share=0.25),)).to_json(),
            encoding="utf-8",
        )
        assert (
            main(
                [
                    "validate",
                    str(path),
                    "--set",
                    "tiers.0.ttft_deadline_s=1.5",
                    "--set",
                    "tiers.1.name=overflow",
                ]
            )
            == 0
        )
        assert "ok:" in capsys.readouterr().out
