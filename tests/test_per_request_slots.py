"""The per-request types are slotted, and the bulk request builders match
the dataclass constructor and ``dataclasses.replace`` field for field."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.admission import AdmissionCandidate
from repro.serving.engine import serve
from repro.serving.interfaces import StepResult
from repro.serving.lifecycle import RequestRecord
from repro.serving.router import restamp
from repro.workloads.traces import Request, RequestTrace, _fast_request, _with_fields

_DEADLINE = st.one_of(
    st.none(), st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False)
)
#: Strategies for every ``Request`` field, over valid values only (the
#: bulk builders skip validation, so their callers validate first).
_FIELDS = {
    "request_id": st.integers(min_value=0, max_value=2**40),
    "prompt_tokens": st.integers(min_value=1, max_value=2**20),
    "output_tokens": st.integers(min_value=1, max_value=2**16),
    "arrival_s": st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    "priority": st.integers(min_value=-10, max_value=10),
    "session": st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
    "tier": st.one_of(st.none(), st.text(max_size=12)),
    "ttft_deadline_s": _DEADLINE,
    "tpot_deadline_s": _DEADLINE,
}
_REQUEST_FIELDS = st.fixed_dictionaries(_FIELDS)
_CHANGES = st.fixed_dictionaries({}, optional=_FIELDS)


def test_field_strategies_cover_every_request_field():
    assert set(_FIELDS) == {field.name for field in dataclasses.fields(Request)}


@pytest.mark.parametrize(
    "instance",
    [
        Request(request_id=0, prompt_tokens=8, output_tokens=4),
        _fast_request(request_id=0, prompt_tokens=8, output_tokens=4),
        AdmissionCandidate(
            request=Request(request_id=0, prompt_tokens=8, output_tokens=4),
            prompt_tokens=8,
            final_tokens=12,
        ),
        RequestRecord(request_id=0, prompt_tokens=8, output_tokens=4, arrival_s=0.0),
    ],
    ids=["Request", "_fast_request", "AdmissionCandidate", "RequestRecord"],
)
def test_instances_have_no_dict(instance):
    assert not hasattr(instance, "__dict__")
    assert type(instance).__slots__


def test_request_stays_frozen():
    request = _fast_request(request_id=0, prompt_tokens=8, output_tokens=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        request.arrival_s = 1.0  # type: ignore[misc]


@given(fields=_REQUEST_FIELDS)
@settings(max_examples=200, deadline=None)
def test_fast_request_equals_constructor(fields):
    built = _fast_request(**fields)
    assert built == Request(**fields)
    assert type(built) is Request


@given(fields=_REQUEST_FIELDS, changes=_CHANGES)
@settings(max_examples=200, deadline=None)
def test_with_fields_equals_replace(fields, changes):
    request = Request(**fields)
    clone = _with_fields(request, **changes)
    assert clone == dataclasses.replace(request, **changes)
    assert request == Request(**fields)  # the original is untouched


def test_with_fields_rejects_unknown_fields():
    request = Request(request_id=0, prompt_tokens=8, output_tokens=4)
    with pytest.raises(TypeError, match="arrival"):
        _with_fields(request, arrival=1.0)


@dataclass
class _FlatSystem:
    kv_capacity_bytes: int = 1_000_000
    kv_bytes_per_token: int = 1
    max_context_tokens: int = 4096

    @property
    def dynamic_memory(self) -> bool:
        return False

    @property
    def total_pim_channels(self) -> int:
        return 0

    def decode_step(self, context_lengths) -> StepResult:
        return StepResult(seconds=0.01 if context_lengths else 0.0, pim_utilization=0.0)


class TestRestamp:
    @staticmethod
    def served():
        trace = RequestTrace(
            dataset="toy",
            requests=(Request(request_id=0, prompt_tokens=8, output_tokens=4, arrival_s=2.0),),
        )
        return serve(_FlatSystem(), trace)

    def test_known_field_is_restamped(self):
        (result,) = restamp([self.served()], {0: {"arrival_s": 1.0}})
        assert result.request_records[0].arrival_s == 1.0

    def test_unknown_field_raises(self):
        # A dict-backed record used to grow a stray attribute silently.
        with pytest.raises(AttributeError):
            restamp([self.served()], {0: {"arrival": 1.0}})
