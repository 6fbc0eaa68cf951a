"""Prefill cost models: context-length-dependent time-to-first-token.

Before PR 2 the engine charged no prefill latency at all, so TTFT only
reflected queueing delay plus one decode step -- a 128-token and a
128k-token prompt looked identical.  A :class:`PrefillModel` prices the
prompt-processing phase as a *cumulative* function of prefilled tokens,
which supports two charging disciplines in the engine:

* **blocking** -- the full prefill latency elapses between admission and
  the first decode step, modelling a dedicated prefill path that runs in
  parallel with ongoing decode (NeuPIMs-style disaggregation);
* **chunked** -- prefill is processed ``chunk_tokens`` at a time,
  interleaved with decode steps on the same hardware (Sarathi/vLLM-style
  chunked prefill): decode steps stretch while a prompt is being
  prefilled, but the prompt does not monopolise the system.

The cumulative formulation makes the marginal cost of a chunk exact even
for super-linear (attention-quadratic) models:
``cost(done, take) = cumulative(done + take) - cumulative(done)``.

System models expose an analytic ``prefill_seconds(prompt_tokens)``
method (see :class:`~repro.system.xpu.XPUOnlySystem`,
:class:`~repro.system.pim_only.PIMOnlySystem`,
:class:`~repro.system.xpu_pim.XPUPIMSystem`); :func:`prefill_model_for`
adapts any such system into a :class:`PrefillModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.api.spec import PrefillSpec
    from repro.models.llm import LLMConfig


@runtime_checkable
class PrefillModel(Protocol):
    """Cumulative prefill latency as a function of prefilled tokens."""

    def cumulative_seconds(self, tokens: int) -> float:
        """Seconds to prefill the first ``tokens`` tokens of a prompt.

        Must be 0 at ``tokens <= 0`` and non-decreasing in ``tokens``.
        """
        ...


@runtime_checkable
class SupportsPrefill(Protocol):
    """A system model that can price its own prefill phase."""

    def prefill_seconds(self, prompt_tokens: int) -> float: ...


@dataclass(frozen=True)
class LinearPrefillModel:
    """Closed-form prefill cost: ``base + a*t + b*t^2`` for ``t`` tokens.

    The linear term models the per-token FC GEMMs (every token passes
    through all weights once); the quadratic term models causal attention
    over the growing prefix.  ``base_s`` is a one-time launch cost charged
    as soon as any token is prefilled.
    """

    per_token_s: float
    per_token_sq_s: float = 0.0
    base_s: float = 0.0

    def __post_init__(self) -> None:
        if self.per_token_s < 0 or self.per_token_sq_s < 0 or self.base_s < 0:
            raise ValueError("prefill cost coefficients must be non-negative")

    def cumulative_seconds(self, tokens: int) -> float:
        if tokens <= 0:
            return 0.0
        return self.base_s + self.per_token_s * tokens + self.per_token_sq_s * tokens * tokens


@dataclass(frozen=True)
class SystemPrefillModel:
    """Adapts a system's analytic ``prefill_seconds`` to :class:`PrefillModel`."""

    system: SupportsPrefill

    def cumulative_seconds(self, tokens: int) -> float:
        if tokens <= 0:
            return 0.0
        return self.system.prefill_seconds(tokens)


def prefill_model_for(system: object) -> PrefillModel:
    """Build the prefill model a system describes for itself.

    Raises:
        TypeError: if the system has no ``prefill_seconds`` method; pass an
            explicit :class:`LinearPrefillModel` in that case.
    """
    if isinstance(system, SupportsPrefill):
        return SystemPrefillModel(system)
    raise TypeError(
        f"{type(system).__name__} does not implement prefill_seconds(); "
        "construct a LinearPrefillModel (or implement SupportsPrefill) instead"
    )


@dataclass(frozen=True)
class PrefillConfig:
    """How the engine charges prefill latency.

    Attributes:
        model: Cumulative prefill cost model.
        chunk_tokens: ``None`` charges the whole prompt at admission
            (blocking); a positive value interleaves prefill with decode,
            processing at most this many prompt tokens per decode step
            (the engine drops to per-step evaluation while prompt work is
            pending, so the chunk rate is independent of ``step_stride``).
    """

    model: PrefillModel
    chunk_tokens: int | None = None

    def __post_init__(self) -> None:
        if self.chunk_tokens is not None and self.chunk_tokens < 1:
            raise ValueError("chunk_tokens must be >= 1 (or None for blocking prefill)")

    @property
    def mode(self) -> str:
        return "blocking" if self.chunk_tokens is None else "chunked"


def system_prefill_model(system: object, spec: PrefillSpec) -> PrefillModel:
    """The ``"system"`` prefill model: the system's own ``prefill_seconds``."""
    del spec
    return prefill_model_for(system)


def linear_prefill_model(system: object, spec: PrefillSpec) -> PrefillModel:
    """The ``"linear"`` prefill model: coefficients from the prefill spec."""
    del system
    return LinearPrefillModel(
        per_token_s=spec.per_token_s,
        per_token_sq_s=spec.per_token_sq_s,
        base_s=spec.base_s,
    )


def transformer_prefill_flops(model: LLMConfig, prompt_tokens: int) -> tuple[float, float]:
    """FLOPs of prefilling ``prompt_tokens`` tokens of a decoder-only LLM.

    Returns ``(fc_flops, attention_flops)``: the FC GEMMs touch every
    parameter once per token (2 FLOPs per MAC), while causal attention
    pays ``QK^T`` plus ``PV`` over the triangular prefix, which sums to
    roughly ``2 * layers * d_model * T^2``.

    ``model`` is any object with ``param_count``, ``num_layers`` and
    ``d_model`` attributes (an :class:`~repro.models.llm.LLMConfig`).
    """
    if prompt_tokens <= 0:
        return 0.0, 0.0
    fc_flops = 2.0 * model.param_count * prompt_tokens
    attention_flops = 2.0 * model.num_layers * model.d_model * float(prompt_tokens) ** 2
    return fc_flops, attention_flops
