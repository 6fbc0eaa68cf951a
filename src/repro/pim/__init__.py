"""DRAM-PIM hardware substrate: ISA, timing, configs, simulator, kernels."""
