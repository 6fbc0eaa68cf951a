"""MLIR-style compiler substrate: IR, pattern detection, lowering, passes."""

from repro.compiler.dpa_encoding import (
    dpa_instruction_footprint,
    encode_attention_loop,
    static_instruction_footprint,
)
from repro.compiler.ir import Graph, Operation, OpType, TensorType, build_decoder_graph
from repro.compiler.lowering import expand_program_to_commands, lower_gemv_to_commands
from repro.compiler.passes import CompiledProgram, PassManager, compile_decoder
from repro.compiler.patterns import AttentionPattern, detect_attention_patterns

__all__ = [
    "TensorType",
    "OpType",
    "Operation",
    "Graph",
    "build_decoder_graph",
    "AttentionPattern",
    "detect_attention_patterns",
    "lower_gemv_to_commands",
    "expand_program_to_commands",
    "encode_attention_loop",
    "static_instruction_footprint",
    "dpa_instruction_footprint",
    "PassManager",
    "CompiledProgram",
    "compile_decoder",
]
