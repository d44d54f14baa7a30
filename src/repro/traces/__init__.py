"""Trace substrate: strace-like event records, containers, serialization,
the on-disk columnar store, and gap statistics."""

from repro.traces.events import (
    KERNEL_FLUSH_PC,
    AccessType,
    ExitEvent,
    ForkEvent,
    IOEvent,
    TraceEvent,
    event_sort_key,
)
from repro.traces.io_format import (
    iter_executions,
    read_application_trace,
    read_executions,
    write_application_trace,
    write_execution,
)
from repro.traces.stats import (
    Gap,
    TraceSummary,
    access_gaps,
    count_gaps_longer_than,
)
from repro.traces.store import (
    DEFAULT_CHUNK_ROWS,
    StoreBackedTrace,
    StoredExecution,
    StoreWriter,
    TraceStore,
    pack_jsonl,
    pack_trace,
)
from repro.traces.trace import (
    ApplicationTrace,
    ExecutionLike,
    ExecutionTrace,
    merge_events,
)

__all__ = [
    "AccessType",
    "ApplicationTrace",
    "DEFAULT_CHUNK_ROWS",
    "ExecutionLike",
    "ExecutionTrace",
    "ExitEvent",
    "ForkEvent",
    "Gap",
    "IOEvent",
    "KERNEL_FLUSH_PC",
    "StoreBackedTrace",
    "StoredExecution",
    "StoreWriter",
    "TraceEvent",
    "TraceStore",
    "TraceSummary",
    "access_gaps",
    "count_gaps_longer_than",
    "event_sort_key",
    "iter_executions",
    "merge_events",
    "pack_jsonl",
    "pack_trace",
    "read_application_trace",
    "read_executions",
    "write_application_trace",
    "write_execution",
]
