"""Gap arithmetic in traces.stats and sim.idle_periods."""

import pytest

from repro.sim.idle_periods import count_opportunities, stream_gaps
from repro.traces.stats import (
    Gap,
    TraceSummary,
    access_gaps,
    count_gaps_longer_than,
)
from repro.traces.trace import ApplicationTrace, ExecutionTrace
from tests.helpers import io_event


def test_gap_length():
    assert Gap(1.0, 3.5).length == pytest.approx(2.5)


def test_gap_rejects_negative_span():
    with pytest.raises(ValueError):
        Gap(2.0, 1.0)


def test_access_gaps_basic():
    gaps = access_gaps([0.0, 1.0, 5.0], service_time=0.5)
    assert [(g.start, g.end) for g in gaps] == [(0.5, 1.0), (1.5, 5.0)]


def test_access_gaps_serializes_overlapping_requests():
    # Second request arrives while the first is still being served.
    gaps = access_gaps([0.0, 0.2, 5.0], service_time=0.5)
    assert len(gaps) == 1
    assert gaps[0].start == pytest.approx(1.0)  # 2 serialized services
    assert gaps[0].end == pytest.approx(5.0)


def test_access_gaps_with_stream_end():
    gaps = access_gaps([0.0], service_time=0.5, stream_end=10.0)
    assert [(g.start, g.end) for g in gaps] == [(0.5, 10.0)]


def test_access_gaps_empty_stream():
    assert access_gaps([], service_time=0.5, stream_end=10.0) == []


def test_count_gaps_longer_than():
    gaps = [Gap(0, 2), Gap(0, 5), Gap(0, 10)]
    assert count_gaps_longer_than(gaps, 4.0) == 2
    assert count_gaps_longer_than(gaps, 10.0) == 0


def test_stream_gaps_includes_leading_and_trailing():
    gaps = stream_gaps(
        [5.0, 6.0], 0.01, start_time=0.0, end_time=20.0
    )
    assert gaps[0].start == 0.0 and gaps[0].end == 5.0
    assert gaps[-1].end == 20.0
    assert len(gaps) == 3


def test_stream_gaps_rejects_inverted_window():
    with pytest.raises(ValueError):
        stream_gaps([], 0.01, start_time=5.0, end_time=1.0)


def test_count_opportunities(breakeven):
    times = [0.0, 2.0, 2.0 + breakeven + 1.0]
    count = count_opportunities(
        times, 0.01, breakeven, start_time=0.0, end_time=times[-1]
    )
    assert count == 1


def test_trace_summary():
    execution = ExecutionTrace.from_events(
        "app", 0, [io_event(0.1), io_event(0.2)],
        initial_pids=frozenset({100}),
    )
    trace = ApplicationTrace("app", [execution])
    summary = TraceSummary.of(trace)
    assert summary.executions == 1
    assert summary.total_io_events == 2
    assert summary.total_processes == 1
