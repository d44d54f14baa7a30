"""Trace substrate: strace-like event records, containers, serialization,
the on-disk columnar store, and gap statistics."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".events": (
        "KERNEL_FLUSH_PC", "AccessType", "ExitEvent", "ForkEvent", "IOEvent",
        "TraceEvent", "event_sort_key",
    ),
    ".io_format": (
        "iter_executions", "read_application_trace", "read_executions",
        "write_application_trace", "write_execution",
    ),
    ".stats": ("Gap", "TraceSummary", "access_gaps", "count_gaps_longer_than"),
    ".store": (
        "DEFAULT_CHUNK_ROWS", "StoreBackedTrace", "StoredExecution",
        "StoreWriter", "TraceStore", "pack_jsonl", "pack_trace",
    ),
    ".trace": (
        "ApplicationTrace", "ExecutionLike", "ExecutionTrace", "merge_events",
    ),
})
