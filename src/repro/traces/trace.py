"""Trace containers: one execution of an application, and an application's
whole trace history (many executions).

An :class:`ExecutionTrace` holds a single run of an application —
possibly many processes, delimited by fork/exit rows — as the trace
store's row columns (:data:`COLUMNS`): one row per event, I/O, fork and
exit alike, in canonical (time, rank) order.  The same columns are the
store's files (:mod:`repro.traces.store`) and the serve protocol's
``ROWS`` payload, so an execution crosses the generator, the page-cache
filter, the store and the serve wire without changing form.  Event
objects (:mod:`repro.traces.events`) are built only on demand — for
JSONL I/O, the strace importer, :mod:`repro.traces.filters` and tests —
through :meth:`ExecutionTrace.from_events` and
:attr:`ExecutionTrace.events`.  :class:`ApplicationTrace` bundles the
successive executions of one application (the paper traces e.g. 49
separate runs of mozilla), which is the unit the
prediction-table-reuse experiments operate on.

**Streaming protocol.**  Downstream consumers (the cache filter, the
simulation engine) drive executions through the :class:`ExecutionLike`
protocol — metadata attributes plus ``columns``,
:meth:`~ExecutionTrace.iter_column_chunks` and
:meth:`~ExecutionTrace.liveness_events` — which
:class:`~repro.traces.store.StoredExecution` implements by reading its
rows from the column files, whole or one chunk window at a time.  An
:class:`ExecutionTrace` is one chunk, so both share one code path and
produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Iterable, Iterator, Protocol, runtime_checkable,
)

from repro.errors import TraceError
from repro.traces.events import (
    AccessType,
    ExitEvent,
    ForkEvent,
    IOEvent,
    TraceEvent,
    event_sort_key,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Column schema, in row-encoding order.  ``etype``: 0 = I/O, 1 = fork,
#: 2 = exit.  ``kind`` is the :class:`~repro.traces.events.AccessType`
#: code of I/O rows and ``aux`` the parent pid of fork rows; the other
#: fields of fork and exit rows are 0.
COLUMNS: tuple[tuple[str, str], ...] = (
    ("etype", "u1"),
    ("time", "<f8"),
    ("pid", "<i8"),
    ("pc", "<i8"),
    ("fd", "<i8"),
    ("kind", "u1"),
    ("inode", "<i8"),
    ("block_start", "<i8"),
    ("block_count", "<i8"),
    ("aux", "<i8"),
)

#: AccessType <-> compact code, in enum-definition order.
KIND_CODE = {kind: code for code, kind in enumerate(AccessType)}
_KIND_BY_CODE: tuple[AccessType, ...] = tuple(AccessType)

#: Sort rank of each ``etype`` code: forks before I/O before exits at the
#: same instant (:func:`~repro.traces.events.event_sort_key`).
_RANK = (1, 0, 2)


def _ranks(etype: np.ndarray) -> np.ndarray:
    """The :data:`_RANK` of every row's ``etype`` code."""
    import numpy as np

    return np.array(_RANK, dtype=np.int8)[etype]


def columns_from_rows(rows: list[tuple]) -> dict[str, np.ndarray]:
    """Columns from row tuples laid out as :data:`COLUMNS`."""
    import numpy as np

    values = list(zip(*rows)) if rows else [()] * len(COLUMNS)
    return {
        name: np.array(column, dtype=np.dtype(spec))
        for (name, spec), column in zip(COLUMNS, values)
    }


def columns_from_events(events: Iterable[TraceEvent]) -> dict[str, np.ndarray]:
    """Columns holding ``events``, in the given order."""
    rows = []
    for event in events:
        if type(event) is IOEvent:
            rows.append((0, event.time, event.pid, event.pc, event.fd,
                         KIND_CODE[event.kind], event.inode,
                         event.block_start, event.block_count, 0))
        elif type(event) is ForkEvent:
            rows.append((1, event.time, event.pid, 0, 0, 0, 0, 0, 0,
                         event.parent_pid))
        elif type(event) is ExitEvent:
            rows.append((2, event.time, event.pid, 0, 0, 0, 0, 0, 0, 0))
        else:
            raise TraceError(f"unknown event type {type(event).__name__}")
    return columns_from_rows(rows)


def events_from_columns(columns: dict, row_base: int = 0) -> list[TraceEvent]:
    """Event objects of every row of ``columns``, in row order.

    The one column-to-event decoder: :attr:`ExecutionTrace.events`,
    :meth:`repro.traces.store.TraceStore.decode_rows` and the wire
    codec's event helper all come here.  ``row_base`` only labels the
    error message for bad type codes.
    """
    by_code = _KIND_BY_CODE
    new = object.__new__
    put = object.__setattr__
    events: list[TraceEvent] = []
    append = events.append
    for row, (code, time, pid, pc, fd, kind, inode, start, count,
              aux) in enumerate(zip(*(columns[name].tolist()
                                      for name, _ in COLUMNS))):
        if code == 0:
            event = new(IOEvent)
            put(event, "time", time)
            put(event, "pid", pid)
            put(event, "pc", pc)
            put(event, "fd", fd)
            put(event, "kind", by_code[kind])
            put(event, "inode", inode)
            put(event, "block_start", start)
            put(event, "block_count", count)
        elif code == 1:
            event = new(ForkEvent)
            put(event, "time", time)
            put(event, "pid", pid)
            put(event, "parent_pid", aux)
        elif code == 2:
            event = new(ExitEvent)
            put(event, "time", time)
            put(event, "pid", pid)
        else:
            raise TraceError(
                f"row {row_base + row}: unknown event type code {code!r}"
            )
        append(event)
    return events


def lifetimes_of(execution: "ExecutionLike") -> dict[int, tuple[float, float]]:
    """``pid -> (start, end)`` liveness interval of every process."""
    start: dict[int, float] = {
        pid: execution.start_time for pid in execution.initial_pids
    }
    end: dict[int, float] = {}
    for event in execution.liveness_events():
        if isinstance(event, ForkEvent):
            start[event.pid] = event.time
        else:
            end[event.pid] = event.time
    return {
        pid: (begin, end.get(pid, execution.end_time))
        for pid, begin in start.items()
    }


@runtime_checkable
class ExecutionLike(Protocol):
    """What the filter and the engine need from one execution.

    Implemented in memory by :class:`ExecutionTrace` and on disk by
    :class:`~repro.traces.store.StoredExecution`.  ``columns`` maps each
    :data:`COLUMNS` name to the whole execution's rows (the plain LRU
    page-cache filter reads them at once; a store maps them without
    copying); ``iter_column_chunks`` must yield the same rows in
    canonical order, one bounded window at a time.
    ``liveness_events`` must return the (small) fork/exit subset, also
    in order.  ``iter_events`` builds event objects for the boundaries
    that want them (:mod:`repro.traces.filters`).
    """

    application: str
    execution_index: int
    initial_pids: frozenset[int]

    @property
    def columns(self) -> dict[str, np.ndarray]: ...

    @property
    def start_time(self) -> float: ...

    @property
    def end_time(self) -> float: ...

    @property
    def event_count(self) -> int: ...

    def iter_column_chunks(self) -> Iterator[dict[str, np.ndarray]]: ...

    def iter_events(self) -> Iterator[TraceEvent]: ...

    def liveness_events(self) -> list[TraceEvent]: ...

    def lifetimes(self) -> dict[int, tuple[float, float]]: ...


@dataclass(slots=True, eq=False)
class ExecutionTrace:
    """One execution (one launch-to-exit) of an application, as columns."""

    application: str
    execution_index: int
    #: One array per :data:`COLUMNS` entry, one row per event.
    columns: dict[str, np.ndarray] = field(
        default_factory=lambda: columns_from_rows([])
    )
    #: Pids alive at trace start (the root process(es) of the application).
    initial_pids: frozenset[int] = frozenset()

    @classmethod
    def from_events(
        cls,
        application: str,
        execution_index: int,
        events: Iterable[TraceEvent],
        initial_pids: Iterable[int] = frozenset(),
    ) -> "ExecutionTrace":
        """An execution holding ``events`` in the given order."""
        return cls(
            application, execution_index, columns_from_events(events),
            frozenset(initial_pids),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionTrace):
            return NotImplemented
        import numpy as np

        return (
            self.application == other.application
            and self.execution_index == other.execution_index
            and self.initial_pids == other.initial_pids
            and all(
                np.array_equal(self.columns[name], other.columns[name])
                for name, _ in COLUMNS
            )
        )

    def sorted(self) -> "ExecutionTrace":
        """A copy with rows in canonical order (one stable sort)."""
        import numpy as np

        columns = self.columns
        order = np.lexsort((_ranks(columns["etype"]), columns["time"]))
        return ExecutionTrace(
            self.application, self.execution_index,
            {name: column[order] for name, column in columns.items()},
            self.initial_pids,
        )

    def validate(self) -> None:
        """Raise :class:`TraceError` on any malformed row.

        Checks the order, process liveness (no I/O, fork or exit of a
        pid that is not alive, no fork of a live one), times >= 0,
        32-bit program counters, block counts >= 0 and self-forks.
        """
        import numpy as np

        columns = self.columns
        etype, time, pid, aux = (
            columns[name] for name in ("etype", "time", "pid", "aux")
        )
        where = f"{self.application}#{self.execution_index}"

        def reject(bad, problem: str, offset: int = 0) -> None:
            if np.any(bad):
                row = offset + int(np.argmax(bad))
                raise TraceError(
                    f"{where}: {problem} (row {row}, pid {int(pid[row])}, "
                    f"t={float(time[row])})"
                )

        step = np.diff(time)
        reject((step < 0) | ((step == 0) & (np.diff(_ranks(etype)) < 0)),
               "events out of order", 1)
        io = etype == 0
        pc = columns["pc"]
        reject(time < 0, "event time must be non-negative")
        reject(io & ((pc < 0) | (pc >= 2**32)),
               "program counters are 32-bit addresses")
        reject(io & (columns["block_count"] < 0),
               "block count must be non-negative")
        reject((etype == 1) & (pid == aux), "a process cannot fork itself")
        # Between two fork/exit rows every row is I/O and the live set
        # is fixed, so each run of I/O rows is checked at once.
        alive = set(self.initial_pids)
        start = 0
        for row in np.flatnonzero(~io).tolist() + [len(etype)]:
            reject(~np.isin(pid[start:row], list(alive)),
                   "I/O from dead/unknown pid", start)
            if row == len(etype):
                break
            who = int(pid[row])
            if etype[row] == 1:
                reject(int(aux[row]) not in alive,
                       f"fork from dead/unknown pid {int(aux[row])}", row)
                reject(who in alive, "fork of already-alive pid", row)
                alive.add(who)
            else:
                reject(who not in alive, "exit of dead/unknown pid", row)
                alive.discard(who)
            start = row + 1

    def iter_column_chunks(self) -> Iterator[dict[str, np.ndarray]]:
        """Yield the columns as one chunk (the streaming-protocol entry point)."""
        yield self.columns

    @property
    def events(self) -> list[TraceEvent]:
        """Every row as an event object, built on demand."""
        return events_from_columns(self.columns)

    def iter_events(self) -> Iterator[TraceEvent]:
        """Iterate events in order (built on demand)."""
        return iter(self.events)

    def liveness_events(self) -> list[TraceEvent]:
        """The fork/exit subset of the event stream, in order."""
        import numpy as np

        rows = np.flatnonzero(self.columns["etype"])
        return [
            ForkEvent(time, pid, parent) if code == 1 else ExitEvent(time, pid)
            for code, time, pid, parent in zip(
                *(self.columns[name][rows].tolist()
                  for name in ("etype", "time", "pid", "aux"))
            )
        ]

    @property
    def event_count(self) -> int:
        """Number of rows (uniform with stored executions)."""
        return len(self.columns["etype"])

    @property
    def io_event_count(self) -> int:
        """Number of I/O rows (uniform with stored executions)."""
        import numpy as np

        return int(np.count_nonzero(self.columns["etype"] == 0))

    @property
    def io_events(self) -> list[IOEvent]:
        """The I/O subset of the event stream, in order."""
        return [e for e in self.events if type(e) is IOEvent]

    @property
    def pids(self) -> set[int]:
        """Every pid alive at any point of the execution."""
        forked = self.columns["pid"][self.columns["etype"] == 1]
        return set(self.initial_pids) | set(forked.tolist())

    @property
    def start_time(self) -> float:
        """Time of the first event (0.0 for an empty execution)."""
        time = self.columns["time"]
        return float(time[0]) if len(time) else 0.0

    @property
    def end_time(self) -> float:
        """Time of the last event (0.0 for an empty execution)."""
        time = self.columns["time"]
        return float(time[-1]) if len(time) else 0.0

    def per_process_io(self) -> dict[int, list[IOEvent]]:
        """I/O events grouped by pid, preserving order."""
        grouped: dict[int, list[IOEvent]] = {pid: [] for pid in self.pids}
        for event in self.io_events:
            grouped.setdefault(event.pid, []).append(event)
        return grouped

    def lifetimes(self) -> dict[int, tuple[float, float]]:
        """``pid -> (start, end)`` liveness interval of every process."""
        return lifetimes_of(self)


@dataclass(slots=True)
class ApplicationTrace:
    """All traced executions of one application, oldest first."""

    application: str
    executions: list[ExecutionTrace] = field(default_factory=list)

    def __post_init__(self) -> None:
        for execution in self.executions:
            if execution.application != self.application:
                raise TraceError(
                    f"execution of {execution.application!r} inside the "
                    f"trace of {self.application!r}"
                )

    def __iter__(self) -> Iterator[ExecutionTrace]:
        return iter(self.executions)

    def __len__(self) -> int:
        return len(self.executions)

    def append(self, execution: ExecutionTrace) -> None:
        """Add one execution; it must belong to this application."""
        if execution.application != self.application:
            raise TraceError(
                f"cannot add execution of {execution.application!r} to the "
                f"trace of {self.application!r}"
            )
        self.executions.append(execution)

    @property
    def total_io_count(self) -> int:
        """Total I/O events across all executions."""
        return sum(e.io_event_count for e in self.executions)


def merge_events(streams: Iterable[Iterable[TraceEvent]]) -> list[TraceEvent]:
    """Merge several event streams into canonical order."""
    merged: list[TraceEvent] = []
    for stream in streams:
        merged.extend(stream)
    merged.sort(key=event_sort_key)
    return merged
