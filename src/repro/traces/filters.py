"""Small trace filtering utilities used by tests, examples, and analysis."""

from __future__ import annotations

from typing import Callable

from repro.traces.events import AccessType, IOEvent, TraceEvent
from repro.traces.trace import ExecutionLike, ExecutionTrace


def filter_events(
    execution: ExecutionLike,
    predicate: Callable[[TraceEvent], bool],
) -> ExecutionTrace:
    """An in-memory copy of ``execution`` keeping only events satisfying
    ``predicate``.

    Fork/exit events are always kept so process liveness stays valid.
    Accepts any :class:`~repro.traces.trace.ExecutionLike` (including
    store-backed executions); the result is always materialized.
    """
    kept = [
        event
        for event in execution.iter_events()
        if not isinstance(event, IOEvent) or predicate(event)
    ]
    return ExecutionTrace.from_events(
        execution.application, execution.execution_index, kept,
        execution.initial_pids,
    )


def only_pid(execution: ExecutionLike, pid: int) -> ExecutionTrace:
    """Keep only the I/O of one process."""
    return filter_events(
        execution, lambda e: isinstance(e, IOEvent) and e.pid == pid
    )


def only_kind(execution: ExecutionLike, kind: AccessType) -> ExecutionTrace:
    """Keep only one access type."""
    return filter_events(
        execution, lambda e: isinstance(e, IOEvent) and e.kind == kind
    )


def time_window(
    execution: ExecutionLike, start: float, end: float
) -> ExecutionTrace:
    """Keep only I/O with ``start <= time <= end``."""
    if end < start:
        raise ValueError("window end before start")
    return filter_events(
        execution,
        lambda e: isinstance(e, IOEvent) and start <= e.time <= end,
    )
