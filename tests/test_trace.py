"""ExecutionTrace / ApplicationTrace containers and validation."""

import pytest

from repro.errors import TraceError
from repro.traces.events import ExitEvent, ForkEvent
from repro.traces.trace import ApplicationTrace, ExecutionTrace, merge_events
from tests.helpers import io_event


def _simple_execution():
    events = [
        ForkEvent(time=0.1, pid=101, parent_pid=100),
        io_event(0.2, pid=100),
        io_event(0.3, pid=101),
        ExitEvent(time=0.4, pid=101),
        io_event(0.5, pid=100),
        ExitEvent(time=0.6, pid=100),
    ]
    return ExecutionTrace.from_events(
        application="app",
        execution_index=0,
        events=events,
        initial_pids=frozenset({100}),
    )


def test_validate_accepts_wellformed_trace():
    _simple_execution().validate()


def test_validate_rejects_out_of_order_events():
    execution = ExecutionTrace.from_events(
        "app", 0, list(reversed(_simple_execution().events)),
        initial_pids=frozenset({100}),
    )
    with pytest.raises(TraceError):
        execution.validate()


def test_validate_rejects_io_from_unknown_pid():
    execution = ExecutionTrace.from_events(
        "app", 0, [io_event(0.1, pid=999)], initial_pids=frozenset({100})
    )
    with pytest.raises(TraceError):
        execution.validate()


def test_validate_rejects_io_after_exit():
    events = [
        ExitEvent(time=0.1, pid=100),
        io_event(0.2, pid=100),
    ]
    execution = ExecutionTrace.from_events(
        "app", 0, events, initial_pids=frozenset({100})
    )
    with pytest.raises(TraceError):
        execution.validate()


def test_validate_rejects_fork_from_dead_parent():
    events = [ForkEvent(time=0.1, pid=101, parent_pid=55)]
    execution = ExecutionTrace.from_events(
        "app", 0, events, initial_pids=frozenset({100})
    )
    with pytest.raises(TraceError):
        execution.validate()


def test_validate_rejects_duplicate_fork():
    events = [
        ForkEvent(time=0.1, pid=101, parent_pid=100),
        ForkEvent(time=0.2, pid=101, parent_pid=100),
    ]
    execution = ExecutionTrace.from_events(
        "app", 0, events, initial_pids=frozenset({100})
    )
    with pytest.raises(TraceError):
        execution.validate()


def test_sorted_returns_canonical_order():
    execution = _simple_execution()
    shuffled = ExecutionTrace.from_events(
        "app",
        0,
        list(reversed(execution.events)),
        initial_pids=frozenset({100}),
    )
    assert shuffled.sorted().events == execution.events


def test_pids_includes_initial_and_forked():
    assert _simple_execution().pids == {100, 101}


def test_per_process_io_groups_by_pid():
    grouped = _simple_execution().per_process_io()
    assert [e.time for e in grouped[100]] == [0.2, 0.5]
    assert [e.time for e in grouped[101]] == [0.3]


def test_lifetimes():
    lifetimes = _simple_execution().lifetimes()
    assert lifetimes[101] == (0.1, 0.4)
    assert lifetimes[100] == (0.1, 0.6)  # initial pid starts at trace start


def test_start_and_end_time():
    execution = _simple_execution()
    assert execution.start_time == 0.1
    assert execution.end_time == 0.6


def test_application_trace_rejects_foreign_execution():
    execution = _simple_execution()
    with pytest.raises(TraceError):
        ApplicationTrace(application="other", executions=[execution])
    trace = ApplicationTrace(application="other")
    with pytest.raises(TraceError):
        trace.append(execution)


def test_application_trace_total_io_count():
    trace = ApplicationTrace("app", [_simple_execution()])
    assert trace.total_io_count == 3
    assert len(trace) == 1


def test_merge_events_sorts_across_streams():
    a = [io_event(0.3), io_event(0.9)]
    b = [io_event(0.1), io_event(0.5)]
    merged = merge_events([a, b])
    assert [e.time for e in merged] == [0.1, 0.3, 0.5, 0.9]
