"""Admission policies: which waiting request gets the next free KV slot.

The engine keeps a queue of requests that have *arrived* but are not yet
*admitted*.  Each scheduling round it asks the active
:class:`AdmissionPolicy` for the order in which to try them, then admits
every candidate the allocator accepts (up to the batch-size cap).  A policy
therefore only ranks candidates; capacity checks stay in the engine, so the
same policy works with static and chunked allocators.

``head_of_line`` controls what happens when a candidate does not fit:
head-of-line policies (FCFS) stop the round, preserving strict arrival
order; skip-over policies keep trying later candidates, trading ordering
fairness for packing density.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Protocol, runtime_checkable

from repro.workloads.traces import Request


@dataclass(frozen=True, slots=True)
class AdmissionCandidate:
    """A waiting request with its context clamped to the serving window.

    Attributes:
        request: The underlying trace request.
        prompt_tokens: Prefill context after clamping to the system window.
        final_tokens: Context length at completion, likewise clamped; this
            is the size the allocator must commit to on admission.
    """

    request: Request
    prompt_tokens: int
    final_tokens: int

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def decode_tokens(self) -> int:
        """Tokens to generate; clamped so the context never outgrows
        ``final_tokens``, i.e. the allocator's reservation."""
        return self.final_tokens - self.prompt_tokens

    @property
    def arrival_s(self) -> float:
        return self.request.arrival_s

    @property
    def priority(self) -> int:
        return self.request.priority


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Ranks arrived-but-waiting requests for admission attempts."""

    #: Short policy name used in results and reports.
    name: str

    #: Stop the admission round at the first candidate that does not fit
    #: (True), or skip it and keep trying later candidates (False).
    head_of_line: bool

    def order(self, waiting: Sequence[AdmissionCandidate]) -> Sequence[AdmissionCandidate]:
        """Return admission candidates in the order they should be tried."""
        ...


class FCFSAdmission:
    """First-come first-served with head-of-line blocking.

    This is the original decode loop's behaviour: requests are admitted
    strictly in arrival order and a request that does not fit blocks
    everything behind it until capacity frees up.
    """

    name = "fcfs"
    head_of_line = True

    def order(self, waiting: Sequence[AdmissionCandidate]) -> Sequence[AdmissionCandidate]:
        return waiting


class CapacityAwareAdmission:
    """Admit the smallest waiting requests first, skipping ones that don't fit.

    Ordering by committed KV size packs the most concurrent requests into
    the cache, maximising batch size (and hence throughput) at the cost of
    delaying long-context requests under load.
    """

    name = "capacity-aware"
    head_of_line = False

    def order(self, waiting: Sequence[AdmissionCandidate]) -> Sequence[AdmissionCandidate]:
        return sorted(
            waiting,
            key=lambda candidate: (
                candidate.final_tokens,
                candidate.arrival_s,
                candidate.request_id,
            ),
        )


class PriorityAdmission:
    """Admit by descending :attr:`Request.priority`, then arrival order.

    Candidates that do not fit are skipped so a large high-priority request
    cannot starve admissible lower-priority work behind it.
    """

    name = "priority"
    head_of_line = False

    def order(self, waiting: Sequence[AdmissionCandidate]) -> Sequence[AdmissionCandidate]:
        return sorted(
            waiting,
            key=lambda candidate: (-candidate.priority, candidate.arrival_s, candidate.request_id),
        )
