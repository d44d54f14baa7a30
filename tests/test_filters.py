"""Trace filtering utilities."""

import pytest

from repro.traces.events import AccessType
from repro.traces.filters import filter_events, only_kind, only_pid, time_window
from repro.traces.trace import ExecutionTrace
from tests.helpers import io_event


def _execution():
    events = [
        io_event(0.1, pid=100, kind=AccessType.READ),
        io_event(0.2, pid=101, kind=AccessType.WRITE),
        io_event(0.3, pid=100, kind=AccessType.READ),
    ]
    return ExecutionTrace.from_events(
        "app", 0, events, initial_pids=frozenset({100, 101})
    )


def test_only_pid():
    filtered = only_pid(_execution(), 100)
    assert [e.pid for e in filtered.io_events] == [100, 100]


def test_only_kind():
    filtered = only_kind(_execution(), AccessType.WRITE)
    assert len(filtered.io_events) == 1
    assert filtered.io_events[0].kind == AccessType.WRITE


def test_time_window():
    filtered = time_window(_execution(), 0.15, 0.25)
    assert [e.time for e in filtered.io_events] == [0.2]


def test_time_window_rejects_inverted():
    with pytest.raises(ValueError):
        time_window(_execution(), 1.0, 0.0)


def test_filter_preserves_metadata():
    filtered = filter_events(_execution(), lambda e: True)
    assert filtered.application == "app"
    assert filtered.initial_pids == frozenset({100, 101})
