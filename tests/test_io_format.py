"""JSON-lines trace serialization round-trips."""

import io

import pytest

from repro.errors import TraceFormatError
from repro.traces.events import AccessType, ExitEvent, ForkEvent
from repro.traces.io_format import (
    event_to_record,
    read_application_trace,
    read_executions,
    record_to_event,
    write_application_trace,
    write_execution,
)
from repro.traces.trace import ApplicationTrace, ExecutionTrace
from tests.helpers import io_event


def _execution(index: int = 0) -> ExecutionTrace:
    events = [
        ForkEvent(time=0.1, pid=101, parent_pid=100),
        io_event(0.2, pid=100, kind=AccessType.WRITE, block_start=42,
                 block_count=3),
        ExitEvent(time=0.5, pid=101),
        ExitEvent(time=0.6, pid=100),
    ]
    return ExecutionTrace.from_events(
        "app", index, events, initial_pids=frozenset({100})
    )


def test_event_record_round_trip_io():
    event = io_event(1.5, kind=AccessType.SYNC_WRITE, block_start=7,
                     block_count=2)
    assert record_to_event(event_to_record(event)) == event


def test_event_record_round_trip_fork_exit():
    fork = ForkEvent(time=0.2, pid=5, parent_pid=4)
    exit_ = ExitEvent(time=0.9, pid=5)
    assert record_to_event(event_to_record(fork)) == fork
    assert record_to_event(event_to_record(exit_)) == exit_


def test_execution_round_trip():
    stream = io.StringIO()
    write_execution(_execution(), stream)
    stream.seek(0)
    restored = read_executions(stream)
    assert len(restored) == 1
    assert restored[0].application == "app"
    assert restored[0].initial_pids == frozenset({100})
    assert restored[0].events == _execution().events


def test_application_trace_round_trip():
    trace = ApplicationTrace("app", [_execution(0), _execution(1)])
    stream = io.StringIO()
    write_application_trace(trace, stream)
    stream.seek(0)
    restored = read_application_trace(stream)
    assert len(restored) == 2
    assert [e.execution_index for e in restored] == [0, 1]


def test_blank_lines_ignored():
    stream = io.StringIO()
    write_execution(_execution(), stream)
    text = stream.getvalue().replace("\n", "\n\n")
    restored = read_executions(io.StringIO(text))
    assert len(restored[0].events) == 4


def test_invalid_json_mid_stream_rejected():
    text = (
        "{not json\n"
        '{"type": "header", "application": "a", "execution": 0}\n'
    )
    with pytest.raises(TraceFormatError, match="line 1: invalid JSON"):
        read_executions(io.StringIO(text))


def test_truncated_final_line_warns_and_stops():
    stream = io.StringIO()
    write_execution(_execution(), stream)
    text = stream.getvalue()
    # Simulate a crash mid-write: the final record is torn in half.
    torn = text.rstrip("\n")
    torn = torn[: len(torn) - len(torn.splitlines()[-1]) // 2 - 1]
    with pytest.warns(RuntimeWarning, match="truncated line"):
        restored = read_executions(io.StringIO(torn))
    # Everything before the tear survives: the partial execution is
    # yielded with the events whose lines were intact.
    assert len(restored) == 1
    assert restored[0].events == _execution().events[:-1]


def test_truncated_lone_line_yields_nothing():
    with pytest.warns(RuntimeWarning):
        assert read_executions(io.StringIO("{not json")) == []


def test_event_before_header_rejected():
    record = '{"type": "exit", "t": 1.0, "pid": 5}'
    with pytest.raises(TraceFormatError):
        read_executions(io.StringIO(record))


def test_unknown_record_type_rejected():
    text = (
        '{"type": "header", "application": "a", "execution": 0}\n'
        '{"type": "mystery"}'
    )
    with pytest.raises(TraceFormatError):
        read_executions(io.StringIO(text))


def test_malformed_io_record_rejected():
    text = (
        '{"type": "header", "application": "a", "execution": 0}\n'
        '{"type": "io", "t": 1.0}'
    )
    with pytest.raises(TraceFormatError):
        read_executions(io.StringIO(text))


def test_empty_stream_rejected_for_application():
    with pytest.raises(TraceFormatError):
        read_application_trace(io.StringIO(""))


def test_malformed_line_fault_surfaces_with_line_number():
    from repro import faults
    from repro.faults import FaultPlan, FaultSpec

    stream = io.StringIO()
    write_application_trace(ApplicationTrace("app", [_execution()]), stream)
    plan = FaultPlan([FaultSpec(site="trace.malformed-line", at=3)])
    with faults.injected(plan):
        stream.seek(0)
        with pytest.raises(TraceFormatError, match="line 3: invalid JSON"):
            read_application_trace(stream)
    # Without the plan the very same stream parses cleanly.
    stream.seek(0)
    assert read_application_trace(stream).executions[0].events
