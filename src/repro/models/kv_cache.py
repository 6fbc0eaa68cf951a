"""KV-cache sizing helpers.

The KV cache stores one key and one value vector per token, per layer, per
KV head.  Its footprint grows linearly with both context length and batch
size and dominates long-context memory demand (paper Fig. 2(b)).
"""

from __future__ import annotations

from repro.models.llm import LLMConfig


def kv_bytes_per_token(model: LLMConfig) -> int:
    """Bytes of KV cache appended per generated/prefilled token."""
    return model.kv_bytes_per_token


def kv_cache_bytes(model: LLMConfig, context_length: int, batch_size: int = 1) -> int:
    """Total KV-cache footprint for ``batch_size`` requests at ``context_length``."""
    if context_length < 0:
        raise ValueError("context_length must be non-negative")
    if batch_size < 0:
        raise ValueError("batch_size must be non-negative")
    return model.kv_bytes_per_token * context_length * batch_size


def max_batch_for_capacity(
    model: LLMConfig,
    capacity_bytes: int,
    context_length: int,
    reserve_params: bool = True,
) -> int:
    """Largest batch size whose KV cache fits in ``capacity_bytes``.

    Args:
        model: LLM configuration.
        capacity_bytes: Total memory capacity available.
        context_length: Context length reserved per request.
        reserve_params: If True, subtract the model parameter footprint from
            the capacity before sizing the KV cache (PIM-only systems hold
            both weights and KV cache in PIM memory).

    Returns:
        The maximum admissible batch size (possibly zero).
    """
    if capacity_bytes < 0:
        raise ValueError("capacity_bytes must be non-negative")
    available = capacity_bytes - (model.param_bytes if reserve_params else 0)
    if available <= 0:
        return 0
    per_request = kv_cache_bytes(model, context_length, batch_size=1)
    if per_request == 0:
        raise ValueError("context_length must be positive to size a batch")
    return available // per_request
