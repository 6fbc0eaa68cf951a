"""LLM architectural configurations and decode-step workload models."""
