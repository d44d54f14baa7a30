"""On-disk columnar trace store with chunked, memory-bounded streaming.

The in-memory trace containers (:mod:`repro.traces.trace`) materialize
every event of every execution before the simulation sees any of them —
fine for the paper's six desktop applications (~10^6 events), hopeless
for server-class streams.  This module stores traces as **flat per-field
column files** read back through NumPy memory maps, so a simulation
touches one *chunk window* of rows at a time and peak memory is bounded
by the chunk size instead of the trace size.

Layout of a store directory::

    store/
      manifest.json          # schema, chunk offsets, provenance
      columns/
        etype.bin  time.bin  pid.bin  pc.bin  fd.bin
        kind.bin   inode.bin block_start.bin block_count.bin aux.bin

Every event is one row across all columns; ``etype`` discriminates I/O
(0) from fork (1) and exit (2) rows, ``kind`` carries the
:class:`~repro.traces.events.AccessType` code of I/O rows, and ``aux``
carries the parent pid of fork rows.  The JSON manifest records the
column schema, the chunk row offsets, each execution's row range plus
its (tiny) fork/exit event list, and a **provenance fingerprint** per
application (:class:`TraceFingerprint`).  In-memory traces are
fingerprinted by the same helper
(:func:`repro.sim.artifact_cache.trace_fingerprint`), so a store-backed
trace and an in-memory trace of equal content key the same
:func:`repro.sim.artifact_cache.filter_key` entries and resilient-run
checkpoints.

Reading is lazy end to end: :class:`TraceStore` memory-maps each column
once, :class:`StoreBackedTrace` holds only per-execution metadata, and
:class:`StoredExecution` decodes events one chunk at a time through the
:class:`~repro.traces.trace.ExecutionLike` streaming protocol.  The
decoded events are **bit-identical** to the events that were packed:
times round-trip as IEEE-754 doubles, all other fields are integers or
enum codes.

Corruption handling mirrors the artifact cache: a missing, truncated, or
undecodable store file is *quarantined* — renamed aside with a
``.corrupt`` suffix so the evidence survives — and surfaces as a
:class:`~repro.errors.TraceStoreError` with the quarantine path in the
message.  The :mod:`repro.faults` site ``cache.corrupt-read`` fires on
store reads too, so chaos plans can exercise this path deliberately.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional

import numpy as np

from repro import faults
from repro.errors import TraceStoreError
from repro.traces.events import (
    AccessType,
    ExitEvent,
    ForkEvent,
    IOEvent,
    TraceEvent,
    event_tuple,
)
from repro.traces.trace import ApplicationTrace, ExecutionTrace

#: Bump whenever the column layout or the manifest schema changes; old
#: stores are rejected with a clear error instead of being misread.
STORE_VERSION = 1

#: Default rows per chunk (~4.2 MB of columns at 66 bytes/row).
DEFAULT_CHUNK_ROWS = 65536

MANIFEST_NAME = "manifest.json"
_COLUMN_DIR = "columns"

#: Column schema, in row-encoding order.  ``etype``: 0 = I/O, 1 = fork,
#: 2 = exit.  ``aux`` is the parent pid of fork rows, 0 otherwise.
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

#: AccessType <-> compact code, in enum-definition order (versioned by
#: :data:`STORE_VERSION` and self-described in the manifest).
_KIND_VALUES: tuple[str, ...] = tuple(kind.value for kind in AccessType)
_KIND_CODE = {kind: code for code, kind in enumerate(AccessType)}
_KIND_BY_CODE: tuple[AccessType, ...] = tuple(AccessType)

#: Pickle protocol for fingerprint hashing (same as the artifact cache).
_PICKLE_PROTOCOL = 4

#: Bytes per row when the columns are laid end to end (wire encoding).
EVENT_ROW_BYTES = sum(np.dtype(spec).itemsize for _, spec in COLUMNS)


def _decode_column_lists(
    etypes, times, pids, pcs, fds, kinds, inodes,
    block_starts, block_counts, auxes, row_base: int,
) -> list[TraceEvent]:
    """Rebuild event objects from plain column lists (one row window).

    Shared by :meth:`TraceStore.decode_rows` and the wire codec below;
    ``row_base`` only labels the error message for bad type codes.
    """
    by_code = _KIND_BY_CODE
    new = object.__new__
    put = object.__setattr__
    events: list[TraceEvent] = []
    append = events.append
    for i in range(len(etypes)):
        code = etypes[i]
        if code == 0:
            event = new(IOEvent)
            put(event, "time", times[i])
            put(event, "pid", pids[i])
            put(event, "pc", pcs[i])
            put(event, "fd", fds[i])
            put(event, "kind", by_code[kinds[i]])
            put(event, "inode", inodes[i])
            put(event, "block_start", block_starts[i])
            put(event, "block_count", block_counts[i])
        elif code == 1:
            event = new(ForkEvent)
            put(event, "time", times[i])
            put(event, "pid", pids[i])
            put(event, "parent_pid", auxes[i])
        elif code == 2:
            event = new(ExitEvent)
            put(event, "time", times[i])
            put(event, "pid", pids[i])
        else:
            raise TraceStoreError(
                f"row {row_base + i}: unknown event type code {code!r}"
            )
        append(event)
    return events


def encode_event_rows(events: Iterable[TraceEvent]) -> bytes:
    """Serialize events as columnar rows (the store's layout, end to end).

    The payload is every column of :data:`COLUMNS`, in order, each as a
    packed array of one value per event — the same bytes a store chunk
    holds, concatenated instead of split across files.  This is the
    ``ROWS`` frame body of the serve protocol (:mod:`repro.serve`):
    :data:`EVENT_ROW_BYTES` per event, row count implied by the length.
    """
    columns: dict[str, list] = {name: [] for name, _ in COLUMNS}
    for event in events:
        if isinstance(event, IOEvent):
            row = (0, event.time, event.pid, event.pc, event.fd,
                   _KIND_CODE[event.kind], event.inode,
                   event.block_start, event.block_count, 0)
        elif isinstance(event, ForkEvent):
            row = (1, event.time, event.pid, 0, 0, 0, 0, 0, 0,
                   event.parent_pid)
        elif isinstance(event, ExitEvent):
            row = (2, event.time, event.pid, 0, 0, 0, 0, 0, 0, 0)
        else:
            raise TraceStoreError(
                f"unknown event type {type(event).__name__}"
            )
        for (name, _), value in zip(COLUMNS, row):
            columns[name].append(value)
    parts = [
        np.asarray(columns[name], dtype=np.dtype(spec)).tobytes()
        for name, spec in COLUMNS
    ]
    return b"".join(parts)


def decode_event_rows(payload: bytes) -> list[TraceEvent]:
    """Inverse of :func:`encode_event_rows` (bit-identical round trip).

    Raises :class:`TraceStoreError` on any length that does not sit on
    the row grid — a truncated frame can never decode to a shorter
    event list by accident.
    """
    if len(payload) % EVENT_ROW_BYTES:
        raise TraceStoreError(
            f"row payload of {len(payload)} byte(s) is not a multiple "
            f"of the {EVENT_ROW_BYTES}-byte row size"
        )
    count = len(payload) // EVENT_ROW_BYTES
    lists = []
    offset = 0
    for _, spec in COLUMNS:
        dtype = np.dtype(spec)
        width = count * dtype.itemsize
        lists.append(
            np.frombuffer(payload, dtype=dtype, count=count,
                          offset=offset).tolist()
        )
        offset += width
    return _decode_column_lists(*lists, 0)


class TraceFingerprint:
    """The provenance digest of one application's event content.

    A BLAKE2b digest seeded with ``store:<version>:<application>`` and
    updated once per execution with a canonical pickle of the execution
    header (index, sorted initial pids, event count) and its
    :func:`~repro.traces.events.event_tuple` values.  The store writer
    computes manifest fingerprints with it and
    :func:`repro.sim.artifact_cache.trace_fingerprint` computes in-memory
    ones, so equal content has one fingerprint wherever it lives.
    """

    __slots__ = ("_digest",)

    def __init__(self, application: str) -> None:
        self._digest = hashlib.blake2b(digest_size=20)
        self._digest.update(
            f"store:{STORE_VERSION}:{application}".encode("utf-8")
        )

    def add_execution(
        self, execution_index: int, initial_pids: Iterable[int],
        tuples: list[tuple],
    ) -> None:
        """Fold in one execution, given its events' value tuples."""
        header = (execution_index, tuple(sorted(initial_pids)), len(tuples))
        self._digest.update(pickle.dumps((header, tuples), _PICKLE_PROTOCOL))

    def hexdigest(self) -> str:
        """The fingerprint of every execution added so far."""
        return self._digest.hexdigest()


def _quarantine(path: Path) -> Path:
    """Rename a corrupt store file aside (``<file>.corrupt``).

    Keeps the evidence for post-mortem inspection, exactly like the
    artifact cache does; falls back to leaving the file in place when
    the rename itself fails.
    """
    aside = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, aside)
        return aside
    except OSError:
        return path


class StoreWriter:
    """Append-only builder of a trace store directory.

    Executions are written one at a time (``write_execution``) and
    buffered into fixed-size row chunks that are appended to the column
    files as soon as they fill, so peak memory is one execution plus one
    chunk buffer — never the whole trace.  ``close()`` (or exiting the
    context manager) flushes the final partial chunk and publishes the
    manifest atomically; a store without a manifest is unreadable, so a
    killed writer never leaves a half-valid store behind.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> None:
        if chunk_rows <= 0:
            raise TraceStoreError("chunk_rows must be positive")
        self.path = Path(path)
        self.chunk_rows = int(chunk_rows)
        if (self.path / MANIFEST_NAME).exists():
            raise TraceStoreError(
                f"refusing to overwrite existing trace store at {self.path}"
            )
        (self.path / _COLUMN_DIR).mkdir(parents=True, exist_ok=True)
        self._files = {
            name: open(self.path / _COLUMN_DIR / f"{name}.bin", "wb")
            for name, _ in COLUMNS
        }
        self._buffers: dict[str, list] = {name: [] for name, _ in COLUMNS}
        self._rows = 0
        self._chunks: list[list[int]] = []
        #: application -> (digest, manifest entry) accumulated so far.
        self._apps: dict[str, dict] = {}
        self._digests: dict[str, TraceFingerprint] = {}
        self._closed = False

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # do not publish a manifest for an aborted pack
            self.abort()

    def _app_state(self, application: str) -> dict:
        entry = self._apps.get(application)
        if entry is None:
            entry = {
                "fingerprint": None,
                "io_events": 0,
                "executions": [],
            }
            self._apps[application] = entry
            self._digests[application] = TraceFingerprint(application)
        return entry

    def write_execution(self, execution) -> None:
        """Append one execution (any :class:`ExecutionLike`) to the store.

        Events are consumed through ``iter_events()`` — an in-memory
        :class:`~repro.traces.trace.ExecutionTrace` and a
        :class:`StoredExecution` being re-packed both work — and must
        already be in canonical order.
        """
        if self._closed:
            raise TraceStoreError("writer is closed")
        application = execution.application
        entry = self._app_state(application)
        buffers = self._buffers
        etype = buffers["etype"]
        time_col = buffers["time"]
        pid_col = buffers["pid"]
        pc_col = buffers["pc"]
        fd_col = buffers["fd"]
        kind_col = buffers["kind"]
        inode_col = buffers["inode"]
        bs_col = buffers["block_start"]
        bc_col = buffers["block_count"]
        aux_col = buffers["aux"]

        row_start = self._rows
        rows = 0
        io_rows = 0
        liveness: list[list] = []
        tuples: list[tuple] = []
        start_time = 0.0
        end_time = 0.0
        for event in execution.iter_events():
            if rows == 0:
                start_time = event.time
            end_time = event.time
            tuples.append(event_tuple(event))
            if isinstance(event, IOEvent):
                etype.append(0)
                time_col.append(event.time)
                pid_col.append(event.pid)
                pc_col.append(event.pc)
                fd_col.append(event.fd)
                kind_col.append(_KIND_CODE[event.kind])
                inode_col.append(event.inode)
                bs_col.append(event.block_start)
                bc_col.append(event.block_count)
                aux_col.append(0)
                io_rows += 1
            elif isinstance(event, ForkEvent):
                etype.append(1)
                time_col.append(event.time)
                pid_col.append(event.pid)
                pc_col.append(0)
                fd_col.append(0)
                kind_col.append(0)
                inode_col.append(0)
                bs_col.append(0)
                bc_col.append(0)
                aux_col.append(event.parent_pid)
                liveness.append(["fork", event.time, event.pid,
                                 event.parent_pid])
            elif isinstance(event, ExitEvent):
                etype.append(2)
                time_col.append(event.time)
                pid_col.append(event.pid)
                pc_col.append(0)
                fd_col.append(0)
                kind_col.append(0)
                inode_col.append(0)
                bs_col.append(0)
                bc_col.append(0)
                aux_col.append(0)
                liveness.append(["exit", event.time, event.pid])
            else:
                raise TraceStoreError(
                    f"unknown event type {type(event).__name__}"
                )
            rows += 1
            self._rows += 1
            if len(etype) >= self.chunk_rows:
                self._flush_chunks()

        initial = sorted(execution.initial_pids)
        self._digests[application].add_execution(
            execution.execution_index, initial, tuples
        )
        entry["io_events"] += io_rows
        entry["executions"].append({
            "index": execution.execution_index,
            "row_start": row_start,
            "rows": rows,
            "io_rows": io_rows,
            "initial_pids": initial,
            "start_time": start_time,
            "end_time": end_time,
            "liveness": liveness,
        })

    def _flush_chunks(self) -> None:
        """Write every full chunk currently buffered to the column files."""
        while len(self._buffers["etype"]) >= self.chunk_rows:
            self._flush_rows(self.chunk_rows)

    def _flush_rows(self, count: int) -> None:
        for name, dtype in COLUMNS:
            buffer = self._buffers[name]
            block = np.asarray(buffer[:count], dtype=np.dtype(dtype))
            self._files[name].write(block.tobytes())
            del buffer[:count]
        start = 0 if not self._chunks else self._chunks[-1][1]
        self._chunks.append([start, start + count])

    def abort(self) -> None:
        """Close file handles without publishing a manifest."""
        if self._closed:
            return
        self._closed = True
        for handle in self._files.values():
            handle.close()

    def close(self) -> Path:
        """Flush the final chunk and publish ``manifest.json`` atomically.

        Returns the manifest path.  The manifest is written to a private
        temporary file and renamed into place, so readers only ever see
        a complete store.
        """
        if self._closed:
            raise TraceStoreError("writer is closed")
        remainder = len(self._buffers["etype"])
        if remainder:
            self._flush_rows(remainder)
        self._closed = True
        for handle in self._files.values():
            handle.flush()
            handle.close()
        store_digest = hashlib.blake2b(digest_size=20)
        store_digest.update(f"store-manifest:{STORE_VERSION}".encode("utf-8"))
        for application, entry in self._apps.items():
            entry["fingerprint"] = self._digests[application].hexdigest()
            store_digest.update(
                f"{application}:{entry['fingerprint']}".encode("utf-8")
            )
        manifest = {
            "format": "repro-trace-store",
            "version": STORE_VERSION,
            "chunk_rows": self.chunk_rows,
            "rows": self._rows,
            "chunks": self._chunks,
            "columns": [list(column) for column in COLUMNS],
            "kind_codes": list(_KIND_VALUES),
            "fingerprint": store_digest.hexdigest(),
            "applications": self._apps,
        }
        target = self.path / MANIFEST_NAME
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path, prefix=".manifest-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as stream:
                json.dump(manifest, stream)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return target


class StoredExecution:
    """One execution of a store-backed trace (metadata only, lazy events).

    Implements the :class:`~repro.traces.trace.ExecutionLike` streaming
    protocol: :meth:`iter_events` decodes one chunk window of rows at a
    time from the memory-mapped columns, and :meth:`liveness_events`
    returns the fork/exit subset straight from the manifest without
    touching the columns at all.
    """

    __slots__ = (
        "_store", "application", "execution_index", "initial_pids",
        "start_time", "end_time", "event_count", "io_event_count",
        "row_start", "_liveness_raw", "_liveness",
    )

    def __init__(self, store: "TraceStore", application: str, meta: dict):
        self._store = store
        self.application = application
        self.execution_index = int(meta["index"])
        self.initial_pids = frozenset(
            int(p) for p in meta.get("initial_pids", ())
        )
        self.start_time = float(meta["start_time"])
        self.end_time = float(meta["end_time"])
        self.event_count = int(meta["rows"])
        self.io_event_count = int(meta["io_rows"])
        self.row_start = int(meta["row_start"])
        self._liveness_raw = meta.get("liveness", [])
        self._liveness: Optional[list[TraceEvent]] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoredExecution({self.application!r}, "
            f"#{self.execution_index}, {self.event_count} events)"
        )

    def liveness_events(self) -> list[TraceEvent]:
        """Fork/exit events, decoded from the manifest (memoized)."""
        if self._liveness is None:
            events: list[TraceEvent] = []
            for record in self._liveness_raw:
                if record[0] == "fork":
                    events.append(ForkEvent(
                        time=record[1], pid=int(record[2]),
                        parent_pid=int(record[3]),
                    ))
                else:
                    events.append(ExitEvent(
                        time=record[1], pid=int(record[2])
                    ))
            self._liveness = events
        return self._liveness

    def chunk_windows(self) -> list[tuple[int, int]]:
        """This execution's row range clipped to the store's chunk grid."""
        return self._store.windows_for(
            self.row_start, self.row_start + self.event_count
        )

    def iter_event_chunks(self) -> Iterator[list[TraceEvent]]:
        """Yield events one chunk window at a time (the bounded path)."""
        for start, stop in self.chunk_windows():
            yield self._store.decode_rows(start, stop)

    def iter_column_chunks(self) -> Iterator[dict[str, np.ndarray]]:
        """Yield zero-copy column views of this execution's rows.

        One mapping per chunk window, each value a slice of the store's
        memory-mapped column array — no event objects are materialized
        and no bytes are copied.  The page-cache filter's store-backed
        fast path (:func:`repro.cache.filter.filter_execution`) consumes
        these directly, which is what lets a columnar replay tape be
        built from a store without per-chunk event decode.  Memory stays
        bounded by the chunk grid exactly like :meth:`iter_event_chunks`.
        """
        cols = self._store.columns()
        for start, stop in self.chunk_windows():
            yield {name: col[start:stop] for name, col in cols.items()}

    def iter_events(self) -> Iterator[TraceEvent]:
        """Iterate every event in canonical order, chunk by chunk."""
        for chunk in self.iter_event_chunks():
            yield from chunk

    @property
    def events(self) -> list[TraceEvent]:
        """The fully materialized event list.

        Provided for interoperability with list-oriented utilities;
        prefer :meth:`iter_events`, which does not defeat the store's
        memory bound.
        """
        return list(self.iter_events())

    @property
    def pids(self) -> set[int]:
        """Every pid alive at any point of the execution."""
        pids = set(self.initial_pids)
        pids.update(
            e.pid for e in self.liveness_events() if isinstance(e, ForkEvent)
        )
        return pids

    def lifetimes(self) -> dict[int, tuple[float, float]]:
        """``pid -> (start, end)``, identical to the in-memory container."""
        start: dict[int, float] = {
            pid: self.start_time for pid in self.initial_pids
        }
        end: dict[int, float] = {}
        for event in self.liveness_events():
            if isinstance(event, ForkEvent):
                start[event.pid] = event.time
            else:
                end[event.pid] = event.time
        return {
            pid: (begin, end.get(pid, self.end_time))
            for pid, begin in start.items()
        }

    def materialize(self) -> ExecutionTrace:
        """An in-memory :class:`ExecutionTrace` with identical events."""
        return ExecutionTrace(
            application=self.application,
            execution_index=self.execution_index,
            events=list(self.iter_events()),
            initial_pids=self.initial_pids,
        )


def _open_store_trace(path: str, application: str) -> "StoreBackedTrace":
    """Unpickling hook: reopen a store-backed trace from its path."""
    return TraceStore(path).trace(application)


class StoreBackedTrace:
    """A lazily-loading stand-in for :class:`ApplicationTrace`.

    Iterating yields :class:`StoredExecution` objects whose events decode
    chunk by chunk on demand.  The ``streaming`` marker tells the
    experiment runner to filter executions one at a time instead of
    memoizing the whole application, and ``fingerprint`` carries the
    manifest's provenance digest so artifact-cache keys and resilient
    checkpoints skip the per-event hashing pass.

    Pickles as ``(store path, application)`` — a few dozen bytes — so
    shipping a suite across process boundaries costs nothing.
    """

    #: Marks this trace as chunk-streaming for the experiment runner.
    streaming = True

    def __init__(self, store: "TraceStore", application: str) -> None:
        self._store = store
        self.application = application
        entry = store.application_entry(application)
        self.fingerprint: str = entry["fingerprint"]
        self.executions: list[StoredExecution] = [
            StoredExecution(store, application, meta)
            for meta in entry["executions"]
        ]
        self._io_events = int(entry["io_events"])

    def __iter__(self) -> Iterator[StoredExecution]:
        return iter(self.executions)

    def __len__(self) -> int:
        return len(self.executions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreBackedTrace({self.application!r}, "
            f"{len(self.executions)} executions, {self._io_events} I/O)"
        )

    def __reduce__(self):
        return (_open_store_trace, (str(self._store.path), self.application))

    @property
    def total_io_count(self) -> int:
        """Total I/O events across executions (from the manifest)."""
        return self._io_events

    @property
    def store(self) -> "TraceStore":
        """The owning store."""
        return self._store

    def materialize(self) -> ApplicationTrace:
        """The fully in-memory :class:`ApplicationTrace` equivalent."""
        return ApplicationTrace(
            application=self.application,
            executions=[e.materialize() for e in self.executions],
        )


class TraceStore:
    """Reader over a packed trace store directory.

    Columns are memory-mapped lazily on first touch and validated
    against the manifest's row count; a missing or truncated column file
    is quarantined and reported as a :class:`TraceStoreError`.  All
    decoding goes through :meth:`decode_rows`, which materializes one
    row window at a time.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        try:
            with open(manifest_path, "r", encoding="utf-8") as stream:
                manifest = json.load(stream)
        except FileNotFoundError:
            raise TraceStoreError(
                f"{self.path} is not a trace store (no {MANIFEST_NAME}; "
                "pack one with `repro trace pack`)"
            ) from None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            aside = _quarantine(manifest_path)
            raise TraceStoreError(
                f"unreadable store manifest {manifest_path} "
                f"(quarantined to {aside}): {exc}"
            ) from exc
        self._manifest = manifest
        if manifest.get("format") != "repro-trace-store":
            raise TraceStoreError(
                f"{manifest_path} is not a trace-store manifest"
            )
        if manifest.get("version") != STORE_VERSION:
            raise TraceStoreError(
                f"store version {manifest.get('version')!r} is not "
                f"supported (this build reads version {STORE_VERSION})"
            )
        columns = [tuple(column) for column in manifest.get("columns", ())]
        if columns != list(COLUMNS):
            raise TraceStoreError(
                f"store column schema {columns!r} does not match this "
                "build's layout"
            )
        try:
            self.rows = int(manifest["rows"])
            self.chunk_rows = int(manifest["chunk_rows"])
            self.chunks = [
                (int(a), int(b)) for a, b in manifest.get("chunks", ())
            ]
            self.fingerprint = str(manifest["fingerprint"])
            self._applications: dict[str, dict] = manifest["applications"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceStoreError(
                f"malformed store manifest {manifest_path}: {exc!r}"
            ) from exc
        self._columns: dict[str, np.ndarray] = {}

    @property
    def applications(self) -> list[str]:
        """Application names packed in this store, in pack order."""
        return list(self._applications)

    def application_entry(self, application: str) -> dict:
        """The manifest entry of one application."""
        try:
            return self._applications[application]
        except KeyError:
            raise TraceStoreError(
                f"store {self.path} has no application {application!r}; "
                f"it holds {sorted(self._applications)}"
            ) from None

    def fingerprints(self) -> dict[str, str]:
        """``application -> provenance fingerprint`` from the manifest."""
        return {
            name: entry["fingerprint"]
            for name, entry in self._applications.items()
        }

    def trace(self, application: str) -> StoreBackedTrace:
        """The lazily-streaming trace of one application."""
        return StoreBackedTrace(self, application)

    def suite(
        self, applications: Optional[Iterable[str]] = None
    ) -> dict[str, StoreBackedTrace]:
        """A runner-ready ``{application: trace}`` mapping."""
        names = (
            list(applications) if applications is not None
            else self.applications
        )
        return {name: self.trace(name) for name in names}

    def windows_for(self, start: int, stop: int) -> list[tuple[int, int]]:
        """The row range ``[start, stop)`` cut along chunk boundaries.

        Boundary cases are exact: a range starting or ending on a chunk
        edge never produces an empty window, and a single final row gets
        a one-row window.  Out-of-range requests raise instead of being
        clamped (see :meth:`decode_rows`).
        """
        self._check_rows(start, stop)
        windows: list[tuple[int, int]] = []
        if stop <= start:
            return windows
        chunk = self.chunk_rows
        first = (start // chunk) * chunk
        for begin in range(first, stop, chunk):
            a = max(start, begin)
            b = min(stop, begin + chunk)
            if a < b:
                windows.append((a, b))
        return windows

    def _column(self, name: str, dtype_spec: str) -> np.ndarray:
        memo = self._columns.get(name)
        if memo is not None:
            return memo
        path = self.path / _COLUMN_DIR / f"{name}.bin"
        faults.corrupt_cache_read(path)
        dtype = np.dtype(dtype_spec)
        expected = self.rows * dtype.itemsize
        try:
            actual = os.stat(path).st_size
        except OSError:
            raise TraceStoreError(
                f"store column {path} is missing; the store is corrupt"
            ) from None
        if actual != expected:
            aside = _quarantine(path)
            raise TraceStoreError(
                f"store column {path} is truncated or corrupt "
                f"({actual} bytes, manifest expects {expected}); "
                f"quarantined to {aside} — re-pack the store"
            )
        if self.rows == 0:
            column: np.ndarray = np.empty(0, dtype=dtype)
        else:
            column = np.memmap(path, dtype=dtype, mode="r",
                               shape=(self.rows,))
        self._columns[name] = column
        return column

    def columns(self) -> dict[str, np.ndarray]:
        """All memory-mapped columns, keyed by name."""
        return {name: self._column(name, spec) for name, spec in COLUMNS}

    def _check_rows(self, start: int, stop: int) -> None:
        """Reject row windows outside ``[0, rows)``.

        NumPy slicing silently clamps an out-of-range window to the
        array, so an off-by-one caller would read a *shorter* stream and
        simulate on truncated data without any error.  Fail loudly
        instead.
        """
        if start < 0 or stop > self.rows:
            raise TraceStoreError(
                f"row window [{start}, {stop}) is outside the store's "
                f"{self.rows} row(s)"
            )

    def decode_rows(self, start: int, stop: int) -> list[TraceEvent]:
        """Materialize rows ``[start, stop)`` back into event objects.

        The slice is the only part of the store touched; callers that
        respect the chunk grid (:meth:`windows_for`) therefore never
        hold more than one chunk of events.  The window must lie inside
        the store's row range — a silent short read is an off-by-one
        bug, not a smaller result.
        """
        self._check_rows(start, stop)
        cols = self.columns()
        return _decode_column_lists(
            cols["etype"][start:stop].tolist(),
            cols["time"][start:stop].tolist(),
            cols["pid"][start:stop].tolist(),
            cols["pc"][start:stop].tolist(),
            cols["fd"][start:stop].tolist(),
            cols["kind"][start:stop].tolist(),
            cols["inode"][start:stop].tolist(),
            cols["block_start"][start:stop].tolist(),
            cols["block_count"][start:stop].tolist(),
            cols["aux"][start:stop].tolist(),
            start,
        )


def pack_jsonl(stream: IO[str], writer: StoreWriter) -> int:
    """Pack a JSON-lines trace stream (see :mod:`repro.traces.io_format`)
    into ``writer``, one execution at a time; returns executions packed."""
    from repro.traces.io_format import iter_executions

    count = 0
    for execution in iter_executions(stream):
        writer.write_execution(execution)
        count += 1
    return count


def pack_trace(trace, writer: StoreWriter) -> int:
    """Pack an application trace (in-memory or store-backed) into
    ``writer``; returns the number of executions packed."""
    count = 0
    for execution in trace:
        writer.write_execution(execution)
        count += 1
    return count
