"""Comparison baselines: ping-pong buffering, CENT, NeuPIMs, GPU."""
