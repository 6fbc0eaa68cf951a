"""Long-context workload generators matched to LongBench / LV-Eval statistics."""
