"""Decoder pattern detection (the paper's custom pattern-matching passes).

PIMphony's compiler identifies PIM-amenable kernels -- the per-KV-head
``QK^T`` -> softmax -> ``SV`` chains and the FC matrix-vector products --
so that subsequent passes can attach partitioning and dynamic-address
metadata and emit PIM instruction streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.ir import Graph, Operation, OpType


@dataclass(frozen=True)
class AttentionPattern:
    """A matched ``QK^T`` -> softmax -> ``SV`` chain for one KV head."""

    kv_head: int
    qkt: Operation
    softmax: Operation
    sv: Operation
    group_size: int
    dynamic: bool

    @property
    def name(self) -> str:
        return f"attention_kv{self.kv_head}"


def detect_attention_patterns(graph: Graph) -> list[AttentionPattern]:
    """Find every per-KV-head attention chain in a decoder graph."""
    patterns: list[AttentionPattern] = []
    for qkt in graph.operations_of_type(OpType.MATMUL):
        if qkt.role != "qkt":
            continue
        kv_head = int(qkt.attr("kv_head", -1))
        scores = qkt.outputs[0]
        softmax_ops = [
            op for op in graph.consumers(scores) if op.op_type is OpType.SOFTMAX
        ]
        if not softmax_ops:
            continue
        softmax = softmax_ops[0]
        probs = softmax.outputs[0]
        sv_ops = [
            op
            for op in graph.consumers(probs)
            if op.op_type is OpType.MATMUL and op.role == "sv"
        ]
        if not sv_ops:
            continue
        sv = sv_ops[0]
        patterns.append(
            AttentionPattern(
                kv_head=kv_head,
                qkt=qkt,
                softmax=softmax,
                sv=sv,
                group_size=int(qkt.attr("group_size", 1)),
                dynamic=bool(qkt.attr("dynamic_dim", "")),
            )
        )
    patterns.sort(key=lambda pattern: pattern.kv_head)
    return patterns


def detect_fc_operations(graph: Graph) -> list[Operation]:
    """Find the fully-connected (weight) matmuls of a decoder graph."""
    return [op for op in graph.operations_of_type(OpType.MATMUL) if op.role == "fc"]
