"""``percentiles`` batching must be bit-identical to repeated ``percentile``,
and both to ``np.percentile``'s default method."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serving.lifecycle import LatencyStats, RequestRecord, percentile, percentiles

SRC = Path(__file__).resolve().parents[2] / "src"


class TestPercentilesBatch:
    def test_matches_single_calls_bit_for_bit(self):
        rng = random.Random(11)
        for size in (1, 2, 7, 100, 1001):
            samples = [rng.expovariate(3.0) for _ in range(size)]
            fractions = (0.0, 0.25, 0.50, 0.95, 0.99, 1.0)
            batched = percentiles(samples, fractions)
            singles = tuple(percentile(samples, fraction) for fraction in fractions)
            assert batched == singles

    def test_empty_samples(self):
        assert percentiles([], (0.5, 0.95)) == (0.0, 0.0)

    def test_fraction_range_checked(self):
        with pytest.raises(ValueError):
            percentiles([1.0], (0.5, 1.5))
        with pytest.raises(ValueError):
            percentiles([1.0], (-0.1,))

    def test_from_records_unchanged_by_batching(self):
        """LatencyStats still reports the exact per-metric percentiles."""
        rng = random.Random(23)
        records = []
        for request_id in range(200):
            arrival = rng.uniform(0.0, 5.0)
            first = arrival + rng.uniform(0.01, 1.0)
            finish = first + rng.uniform(0.1, 9.0)
            record = RequestRecord(
                request_id=request_id,
                prompt_tokens=128,
                output_tokens=32,
                arrival_s=arrival,
                admitted_s=arrival,
                first_token_s=first,
                finish_s=finish,
            )
            records.append(record)
        stats = LatencyStats.from_records(records)
        ttfts = [record.ttft_s for record in records]
        latencies = [record.latency_s for record in records]
        assert stats.ttft_p50_s == percentile(ttfts, 0.50)
        assert stats.ttft_p95_s == percentile(ttfts, 0.95)
        assert stats.ttft_p99_s == percentile(ttfts, 0.99)
        assert stats.latency_p50_s == percentile(latencies, 0.50)
        assert stats.latency_p99_s == percentile(latencies, 0.99)
        assert math.isclose(stats.ttft_mean_s, sum(ttfts) / len(ttfts))


#: Few distinct values, so ties and duplicate samples are common.
_TIED = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e-9, 7.0, 1e6])
_SPREAD = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False)
_FRACTIONS = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1.0, 0.5, 0.95, 0.99]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    min_size=1,
    max_size=6,
)


class TestMatchesNumpy:
    @given(
        samples=st.one_of(
            st.lists(_TIED, min_size=1, max_size=40),
            st.lists(_SPREAD, min_size=1, max_size=200),
            st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=40),
        ),
        fractions=_FRACTIONS,
    )
    @settings(max_examples=300, deadline=None)
    @example(samples=[4.25], fractions=[0.0, 0.37, 1.0])
    @example(samples=[2.0, 2.0, 1.0, 2.0], fractions=[0.0, 0.5, 0.99, 1.0])
    def test_equals_np_percentile(self, samples, fractions):
        expected = np.percentile(np.asarray(samples), [f * 100.0 for f in fractions])
        assert percentiles(samples, fractions) == tuple(float(v) for v in expected)
        for fraction in fractions:
            single = float(np.percentile(np.asarray(samples), fraction * 100.0))
            assert percentile(samples, fraction) == single

    def test_nan_in_gives_nan_out(self):
        samples = [1.0, math.nan, 3.0]
        with np.errstate(invalid="ignore"):
            expected = np.percentile(np.asarray(samples), [0.0, 50.0, 100.0])
        assert all(math.isnan(value) for value in expected)
        assert all(math.isnan(value) for value in percentiles(samples, (0.0, 0.5, 1.0)))
        assert math.isnan(percentile(samples, 0.5))


def reference_from_records(records: Sequence[RequestRecord]) -> LatencyStats:
    """``LatencyStats.from_records`` as it was with all three families held.

    It builds the TTFT, TPOT and latency lists together, sums each in
    record order and takes each family's percentiles from a sorted copy.
    The production rollup reduces one family at a time and must return
    the same floats.
    """
    finished = [record for record in records if record.finished]
    if not finished:
        return LatencyStats()
    ttfts = [record.ttft_s for record in finished]
    tpots = [record.tpot_s for record in finished]
    latencies = [record.latency_s for record in finished]
    triple = (0.50, 0.95, 0.99)
    ttft_p50, ttft_p95, ttft_p99 = percentiles(ttfts, triple)
    tpot_p50, tpot_p95, tpot_p99 = percentiles(tpots, triple)
    latency_p50, latency_p95, latency_p99 = percentiles(latencies, triple)
    return LatencyStats(
        ttft_mean_s=sum(ttfts) / len(finished),
        ttft_p50_s=ttft_p50,
        ttft_p95_s=ttft_p95,
        ttft_p99_s=ttft_p99,
        tpot_mean_s=sum(tpots) / len(finished),
        tpot_p50_s=tpot_p50,
        tpot_p95_s=tpot_p95,
        tpot_p99_s=tpot_p99,
        queue_delay_mean_s=sum(record.queue_delay_s for record in finished) / len(finished),
        prefill_mean_s=sum(record.prefill_s for record in finished) / len(finished),
        latency_p50_s=latency_p50,
        latency_p95_s=latency_p95,
        latency_p99_s=latency_p99,
    )


def _exact(stats: LatencyStats) -> tuple[str, ...]:
    """Field values by ``repr``: NaN equals NaN, and -0.0 differs from 0.0."""
    return tuple(repr(value) for value in dataclasses.astuple(stats))


_TIME = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)
#: A stamp that may be missing (NaN), so unfinished requests and finished
#: ones without a first token both occur.
_STAMP = st.one_of(_TIME, st.just(math.nan))


@st.composite
def _records(draw) -> list[RequestRecord]:
    records = []
    for request_id in range(draw(st.integers(min_value=0, max_value=40))):
        records.append(
            RequestRecord(
                request_id=request_id,
                prompt_tokens=draw(st.integers(min_value=1, max_value=4096)),
                # Single-token requests report a TPOT of 0.
                output_tokens=draw(st.integers(min_value=1, max_value=3)),
                arrival_s=draw(_TIME),
                admitted_s=draw(_STAMP),
                first_token_s=draw(_STAMP),
                finish_s=draw(_STAMP),
                prefill_s=draw(_TIME),
            )
        )
    return records


class TestFromRecordsOracle:
    @given(records=_records())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, records):
        assert _exact(LatencyStats.from_records(records)) == _exact(
            reference_from_records(records)
        )

    def test_large_run_equals_reference(self):
        rng = random.Random(5)
        records = []
        for request_id in range(5000):
            arrival = rng.uniform(0.0, 100.0)
            first = arrival + rng.expovariate(2.0)
            records.append(
                RequestRecord(
                    request_id=request_id,
                    prompt_tokens=rng.randint(1, 8192),
                    output_tokens=rng.randint(1, 512),
                    arrival_s=arrival,
                    admitted_s=arrival + rng.uniform(0.0, 1.0),
                    first_token_s=first,
                    finish_s=first + rng.uniform(0.0, 30.0) if request_id % 7 else math.nan,
                    prefill_s=rng.uniform(0.0, 0.5),
                )
            )
        assert _exact(LatencyStats.from_records(records)) == _exact(
            reference_from_records(records)
        )


_NUMPY_MA_PROBE = """
import json, sys
from repro.api.build import build
from repro.api.spec import ExperimentSpec
spec = ExperimentSpec.from_dict(json.loads(sys.argv[1]))
report = build(spec).run()
json.dumps(report.to_dict())
assert report.to_dict()["metrics"]["requests_served"] == 4
print(json.dumps("numpy.ma" in sys.modules))
"""


@pytest.mark.parametrize(
    "system",
    [{"kind": "xpu-only"}, {"kind": "xpu-pim", "pimphony": "full"}],
    ids=["xpu-only", "xpu-pim"],
)
def test_serving_never_imports_numpy_ma(system):
    """Latency percentiles are pure Python: a run loads no ``numpy.ma``.

    ``np.percentile`` imports ``numpy.ma`` on first use, which used to be
    the only module a run loaded after set-up.  This checks that import
    property in a fresh interpreter; it measures no time.
    """
    spec = {
        "name": "numpy-ma-probe",
        "system": system,
        "trace": {"source": "synthetic", "num_requests": 4, "output_tokens": 8},
        "step_stride": 4,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_PROBE, json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) is False
