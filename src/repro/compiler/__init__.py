"""MLIR-style compiler substrate: IR, pattern detection, lowering, passes."""
