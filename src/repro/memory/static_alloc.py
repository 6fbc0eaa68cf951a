"""Static, maximum-context KV-cache allocation (the baseline of Sec. VI-A).

Conventional PIM systems compile instruction sequences with fixed physical
addresses, so every request must reserve KV-cache space for the maximum
context length ``T_max`` up front.  Capacity utilisation is therefore the
ratio of *actual* to *reserved* tokens, which the paper measures at ~36% on
real long-context workloads (Fig. 19 baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.lifecycle import AllocationError, CapacityExceeded, PreemptedState


@dataclass
class StaticAllocator:
    """Reserves ``T_max`` worth of KV cache per admitted request.

    Attributes:
        capacity_bytes: Total bytes available for KV cache.
        max_context_tokens: ``T_max`` used to size every reservation.
        bytes_per_token: KV bytes appended per token (model dependent).
    """

    capacity_bytes: int
    max_context_tokens: int
    bytes_per_token: int
    _reservations: dict[int, int] = field(default_factory=dict, repr=False)
    _used_tokens: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        if self.max_context_tokens <= 0 or self.bytes_per_token <= 0:
            raise ValueError("max_context_tokens and bytes_per_token must be positive")

    @property
    def reservation_bytes(self) -> int:
        """Bytes reserved per request."""
        return self.max_context_tokens * self.bytes_per_token

    @property
    def allocated_bytes(self) -> int:
        return sum(self._reservations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    @property
    def num_requests(self) -> int:
        return len(self._reservations)

    def can_admit(self, tokens: int | None = None) -> bool:
        """Whether one more request's worst-case reservation fits.

        Args:
            tokens: Optional context length of the candidate request.
                Static reservations are always ``T_max`` so the value only
                rules out requests longer than the maximum; it is accepted
                for signature parity with :class:`ChunkedAllocator` (the
                legacy no-argument form still works).
        """
        if tokens is not None and tokens > self.max_context_tokens:
            return False
        return self.free_bytes >= self.reservation_bytes

    def could_ever_fit(self, tokens: int) -> bool:
        """Whether ``tokens`` of context fits an *empty* allocator at all."""
        return tokens <= self.max_context_tokens and self.capacity_bytes >= self.reservation_bytes

    def reserve(
        self, request_id: int, initial_tokens: int, final_tokens: int | None = None
    ) -> None:
        """Admit a request that will grow to ``final_tokens`` of context.

        The reservation is ``T_max`` regardless of ``final_tokens``; the
        argument exists so both allocators share one admission signature
        (and may be omitted under the incremental lifecycle contract).

        Raises:
            ValueError: if the request is already admitted or
                ``final_tokens`` is below ``initial_tokens``.
            AllocationError: if the final context exceeds the static maximum.
            CapacityExceeded: if the worst-case reservation does not fit now.
        """
        if request_id in self._reservations:
            raise ValueError(f"request {request_id} already admitted")
        if final_tokens is None:
            final_tokens = initial_tokens
        if final_tokens < initial_tokens:
            raise ValueError("final_tokens must be >= initial_tokens")
        if final_tokens > self.max_context_tokens:
            raise AllocationError("final context exceeds the static maximum")
        if not self.can_admit():
            raise CapacityExceeded("insufficient capacity for a worst-case reservation")
        self._reservations[request_id] = self.reservation_bytes
        self._used_tokens[request_id] = initial_tokens

    def grow(self, request_id: int, count: int = 1) -> None:
        """Record generated tokens; the reservation never grows or shrinks.

        A ``T_max`` reservation already covers any in-window growth, so
        unlike the chunked allocator this never raises
        :class:`~repro.memory.lifecycle.CapacityExceeded` -- static
        systems feel capacity pressure at admission, not mid-decode.
        """
        if request_id not in self._reservations:
            raise KeyError(f"request {request_id} is not admitted")
        new_total = self._used_tokens[request_id] + count
        if new_total > self.max_context_tokens:
            raise AllocationError("request exceeded the static maximum context")
        self._used_tokens[request_id] = new_total

    # Kept only as a name: perfbench/layers.py patches it on the class, and the
    # frozen legacy oracle in tests/serving/test_parity.py calls it.
    append_token = grow

    def preempt(self, request_id: int) -> PreemptedState:
        """Free a request's reservation and return a restore receipt.

        Raises:
            KeyError: if the request is not admitted.
        """
        if request_id not in self._reservations:
            raise KeyError(f"request {request_id} is not admitted")
        tokens = self._used_tokens.pop(request_id)
        del self._reservations[request_id]
        return PreemptedState(
            request_id=request_id,
            tokens=tokens,
            kv_bytes=tokens * self.bytes_per_token,
        )

    def restore(self, request_id: int, state: PreemptedState) -> None:
        """Re-admit a preempted request with its saved context.

        Raises:
            CapacityExceeded: if a worst-case reservation does not fit yet.
        """
        if request_id in self._reservations:
            raise ValueError(f"request {request_id} already admitted")
        if not self.can_admit(state.tokens):
            raise CapacityExceeded("insufficient capacity to restore request")
        self._reservations[request_id] = self.reservation_bytes
        self._used_tokens[request_id] = state.tokens

    def release(self, request_id: int) -> None:
        """Free a request's reservation."""
        self._reservations.pop(request_id, None)
        self._used_tokens.pop(request_id, None)

    @property
    def used_bytes(self) -> int:
        """Bytes actually backing live tokens."""
        return sum(tokens * self.bytes_per_token for tokens in self._used_tokens.values())

    @property
    def capacity_utilization(self) -> float:
        """Live-token bytes divided by reserved bytes (Fig. 19 metric)."""
        reserved = self.allocated_bytes
        if reserved == 0:
            return 0.0
        return self.used_bytes / reserved
