"""Tensor / pipeline parallelism plans across PIM modules (paper Sec. II-C).

Tensor parallelism (TP) shards attention heads and FC weight columns across
the modules of a stage and requires an all-reduce per projection; pipeline
parallelism (PP) assigns consecutive layers to different modules and keeps
them busy with different micro-batches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.llm import LLMConfig


@dataclass(frozen=True)
class ParallelismPlan:
    """A (TP, PP) decomposition of the module pool.

    Attributes:
        tensor_parallel: Modules a stage shards its heads/weights across.
        pipeline_parallel: Number of pipeline stages.
    """

    tensor_parallel: int
    pipeline_parallel: int

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1 or self.pipeline_parallel < 1:
            raise ValueError("parallelism degrees must be >= 1")

    @property
    def num_modules(self) -> int:
        return self.tensor_parallel * self.pipeline_parallel

    def kv_heads_per_module(self, model: LLMConfig) -> int:
        """KV heads a module handles in one of its layers."""
        shard = model.num_kv_heads // self.tensor_parallel
        return max(1, shard)

    def layers_per_stage(self, model: LLMConfig) -> int:
        """Layers executed by each pipeline stage."""
        return -(-model.num_layers // self.pipeline_parallel)

    def validate_for(self, model: LLMConfig) -> None:
        """Check that the plan divides the model cleanly enough to be used."""
        if self.tensor_parallel > model.num_kv_heads:
            raise ValueError(
                f"TP={self.tensor_parallel} exceeds the {model.num_kv_heads} KV heads"
            )
        if self.pipeline_parallel > model.num_layers:
            raise ValueError(
                f"PP={self.pipeline_parallel} exceeds the {model.num_layers} layers"
            )

    def __str__(self) -> str:
        return f"TP{self.tensor_parallel}xPP{self.pipeline_parallel}"


def enumerate_plans(num_modules: int, model: LLMConfig) -> list[ParallelismPlan]:
    """All valid (TP, PP) factorisations of ``num_modules`` for a model."""
    if num_modules <= 0:
        raise ValueError("num_modules must be positive")
    plans = []
    for tensor_parallel in range(1, num_modules + 1):
        if num_modules % tensor_parallel != 0:
            continue
        plan = ParallelismPlan(
            tensor_parallel=tensor_parallel,
            pipeline_parallel=num_modules // tensor_parallel,
        )
        try:
            plan.validate_for(model)
        except ValueError:
            continue
        plans.append(plan)
    return plans
