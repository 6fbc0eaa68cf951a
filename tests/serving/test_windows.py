"""Edge-case tests for windowed per-interval serving metrics."""

import math

import pytest

from repro.serving.lifecycle import LatencyStats, RequestRecord, windowed_stats


def _record(
    request_id: int,
    arrival_s: float,
    first_token_s: float | None = None,
    finish_s: float | None = None,
    ttft_deadline_s: float | None = None,
) -> RequestRecord:
    record = RequestRecord(
        request_id=request_id,
        prompt_tokens=32,
        output_tokens=4,
        arrival_s=arrival_s,
        ttft_deadline_s=ttft_deadline_s,
    )
    record.admitted_s = arrival_s
    if first_token_s is not None:
        record.first_token_s = first_token_s
        record.generated = 4
    if finish_s is not None:
        record.finish_s = finish_s
    return record


class TestWindowedStats:
    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError, match="window_s"):
            windowed_stats([_record(0, 0.0)], 0.0)
        with pytest.raises(ValueError, match="window_s"):
            windowed_stats([_record(0, 0.0)], math.inf)

    def test_no_records_yields_no_windows(self):
        assert windowed_stats([], 10.0) == ()

    def test_empty_middle_windows_are_kept(self):
        # Arrivals in window 0 and window 3 only: the quiet windows 1 and
        # 2 must still appear, contiguous, with vacuous attainment.
        records = [
            _record(0, 1.0, first_token_s=1.5, finish_s=2.0),
            _record(1, 31.0, first_token_s=31.5, finish_s=32.0),
        ]
        windows = windowed_stats(records, 10.0)
        assert len(windows) == 4
        assert [w.start_s for w in windows] == [0.0, 10.0, 20.0, 30.0]
        assert [w.arrivals for w in windows] == [1, 0, 0, 1]
        for quiet in windows[1:3]:
            assert quiet.finished == 0
            assert quiet.ttft_attainment == 1.0
            assert quiet.tpot_attainment == 1.0
            assert quiet.goodput_fraction == 1.0

    def test_boundary_arrival_belongs_to_later_window(self):
        records = [
            _record(0, 9.999, first_token_s=10.5, finish_s=11.0),
            _record(1, 10.0, first_token_s=10.5, finish_s=11.0),
        ]
        windows = windowed_stats(records, 10.0)
        assert [w.arrivals for w in windows] == [1, 1]

    def test_unserved_requests_count_against_their_window(self):
        # A request with a TTFT deadline that never got a first token is
        # an SLO miss and not part of goodput; a deadline-free unserved
        # request misses goodput (not finished) but attains vacuously.
        records = [
            _record(0, 1.0, ttft_deadline_s=0.5),  # never served, has deadline
            _record(1, 2.0),  # never served, no deadline
            _record(2, 3.0, first_token_s=3.2, finish_s=3.5, ttft_deadline_s=0.5),
        ]
        (window,) = windowed_stats(records, 10.0)
        assert window.arrivals == 3
        assert window.finished == 1
        assert window.ttft_attained == 2  # record 1 (vacuous) + record 2
        assert window.goodput_requests == 1  # only the finished record 2
        assert window.goodput_fraction == pytest.approx(1 / 3)

    def test_single_window_matches_whole_run_stats(self):
        records = [
            _record(i, 0.5 * i, first_token_s=0.5 * i + 0.2, finish_s=0.5 * i + 1.0)
            for i in range(8)
        ]
        (window,) = windowed_stats(records, 100.0)
        assert window.latency == LatencyStats.from_records(records)
        assert window.arrivals == 8
        assert window.finished == 8
        assert window.goodput_fraction == 1.0
