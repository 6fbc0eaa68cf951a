"""Tests for tensor/pipeline parallelism plans."""

import pytest

from repro.system.parallelism import ParallelismPlan, enumerate_plans


class TestPlan:
    def test_module_count_and_shards(self, llm_7b):
        plan = ParallelismPlan(tensor_parallel=4, pipeline_parallel=2)
        assert plan.num_modules == 8
        assert plan.kv_heads_per_module(llm_7b) == llm_7b.num_kv_heads // 4
        assert plan.layers_per_stage(llm_7b) == llm_7b.num_layers // 2

    def test_validation_against_model(self, llm_7b_gqa):
        # LLM-7B-128K has 8 KV heads: TP beyond 8 is invalid.
        with pytest.raises(ValueError):
            ParallelismPlan(16, 1).validate_for(llm_7b_gqa)
        ParallelismPlan(8, 1).validate_for(llm_7b_gqa)

    def test_invalid_degrees_rejected(self):
        with pytest.raises(ValueError):
            ParallelismPlan(0, 1)

    def test_str_representation(self):
        assert str(ParallelismPlan(4, 2)) == "TP4xPP2"


class TestEnumeration:
    def test_all_factorisations_enumerated(self, llm_7b):
        plans = enumerate_plans(8, llm_7b)
        pairs = {(plan.tensor_parallel, plan.pipeline_parallel) for plan in plans}
        assert pairs == {(1, 8), (2, 4), (4, 2), (8, 1)}

    def test_invalid_plans_filtered(self, llm_7b_gqa):
        plans = enumerate_plans(32, llm_7b_gqa)
        assert all(plan.tensor_parallel <= llm_7b_gqa.num_kv_heads for plan in plans)

    def test_zero_modules_rejected(self, llm_7b):
        with pytest.raises(ValueError):
            enumerate_plans(0, llm_7b)
