"""Serialization of traces to a JSON-lines, strace-like text format.

One event per line.  The first line of an execution is a header record.
The format is stable and round-trips exactly, so generated workloads can
be stored, inspected, or exchanged like real ``strace`` captures::

    {"type": "header", "application": "mozilla", "execution": 0, "initial_pids": [100]}
    {"type": "fork", "t": 0.2, "pid": 101, "parent": 100}
    {"type": "io", "t": 0.31, "pid": 100, "pc": 134513712, "fd": 3,
     "kind": "read", "inode": 42, "blocks": [1024, 1025]}
    {"type": "exit", "t": 9.5, "pid": 101}
"""

from __future__ import annotations

import json
import warnings
from typing import IO, Iterable, Iterator

from repro import faults
from repro.errors import TraceFormatError
from repro.traces.events import (
    AccessType,
    ExitEvent,
    ForkEvent,
    IOEvent,
    TraceEvent,
)
from repro.traces.trace import (
    ApplicationTrace,
    ExecutionTrace,
    columns_from_events,
)


def event_to_record(event: TraceEvent) -> dict:
    """Convert one event to its JSON-serializable record."""
    if isinstance(event, IOEvent):
        return {
            "type": "io",
            "t": event.time,
            "pid": event.pid,
            "pc": event.pc,
            "fd": event.fd,
            "kind": event.kind.value,
            "inode": event.inode,
            "block_start": event.block_start,
            "block_count": event.block_count,
        }
    if isinstance(event, ForkEvent):
        return {
            "type": "fork",
            "t": event.time,
            "pid": event.pid,
            "parent": event.parent_pid,
        }
    if isinstance(event, ExitEvent):
        return {"type": "exit", "t": event.time, "pid": event.pid}
    raise TraceFormatError(f"unknown event type {type(event).__name__}")


def record_to_event(record: dict) -> TraceEvent:
    """Convert one parsed record back into an event."""
    try:
        kind = record["type"]
        if kind == "io":
            return IOEvent(
                time=float(record["t"]),
                pid=int(record["pid"]),
                pc=int(record["pc"]),
                fd=int(record["fd"]),
                kind=AccessType(record["kind"]),
                inode=int(record["inode"]),
                block_start=int(record.get("block_start", 0)),
                block_count=int(record.get("block_count", 0)),
            )
        if kind == "fork":
            return ForkEvent(
                time=float(record["t"]),
                pid=int(record["pid"]),
                parent_pid=int(record["parent"]),
            )
        if kind == "exit":
            return ExitEvent(time=float(record["t"]), pid=int(record["pid"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"malformed record {record!r}") from exc
    raise TraceFormatError(f"unknown record type {kind!r}")


def write_execution(execution: ExecutionTrace, stream: IO[str]) -> None:
    """Write one execution (header + events) to ``stream``."""
    header = {
        "type": "header",
        "application": execution.application,
        "execution": execution.execution_index,
        "initial_pids": sorted(execution.initial_pids),
    }
    stream.write(json.dumps(header) + "\n")
    for event in execution.events:
        stream.write(json.dumps(event_to_record(event)) + "\n")


def _parse_lines(lines: Iterable[str]) -> Iterator[dict]:
    plan = faults.active()
    iterator = iter(lines)
    number = 0
    for line in iterator:
        number += 1
        line = line.strip()
        if not line:
            continue
        if plan is not None:
            line = faults.corrupt_trace_line(plan, line)
        try:
            yield json.loads(line)
        except json.JSONDecodeError as exc:
            # A crash mid-write can only tear the *final* line of an
            # append-only stream.  If nothing but blank lines follows,
            # treat the tear like the store treats corruption — keep
            # what is intact, warn, stop — instead of failing the read.
            if not any(rest.strip() for rest in iterator):
                warnings.warn(
                    f"trace stream ends in a truncated line {number}; "
                    "ignoring the partial record (crash mid-write?)",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return
            raise TraceFormatError(f"line {number}: invalid JSON") from exc


def iter_executions(stream: IO[str]) -> Iterator[ExecutionTrace]:
    """Stream back executions written by :func:`write_execution`.

    Yields each execution as soon as its last event has been read, so
    peak memory is one execution rather than the whole stream — this is
    the import path the trace-store packer uses.
    """
    current: ExecutionTrace | None = None
    events: list[TraceEvent] = []
    for record in _parse_lines(stream):
        if record.get("type") == "header":
            if current is not None:
                current.columns = columns_from_events(events)
                yield current
            try:
                current = ExecutionTrace(
                    application=str(record["application"]),
                    execution_index=int(record["execution"]),
                    initial_pids=frozenset(
                        int(p) for p in record.get("initial_pids", ())
                    ),
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise TraceFormatError(
                    f"malformed header {record!r}"
                ) from exc
            events = []
            continue
        if current is None:
            raise TraceFormatError("event record before any header")
        events.append(record_to_event(record))
    if current is not None:
        current.columns = columns_from_events(events)
        yield current


def read_executions(stream: IO[str]) -> list[ExecutionTrace]:
    """Read back every execution written by :func:`write_execution`."""
    return list(iter_executions(stream))


def write_application_trace(trace: ApplicationTrace, stream: IO[str]) -> None:
    """Serialize all executions of an application."""
    for execution in trace.executions:
        write_execution(execution, stream)


def read_application_trace(stream: IO[str]) -> ApplicationTrace:
    """Deserialize an application trace; all executions must belong to the
    same application."""
    executions = read_executions(stream)
    if not executions:
        raise TraceFormatError("empty trace stream")
    return ApplicationTrace(
        application=executions[0].application, executions=executions
    )
