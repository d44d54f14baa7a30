"""On-disk columnar trace store with chunked, memory-bounded streaming.

An in-memory execution (:class:`~repro.traces.trace.ExecutionTrace`)
holds its rows as the columns of :data:`COLUMNS`; this module writes
those same columns to **flat per-field column files** and reads back
only the row range a caller asks for, so a simulation holds one
execution (or one *chunk window*) of rows at a time and peak memory is
bounded by that range instead of the trace size.  Packing copies column
arrays and reading fills them from the files: no event object is built
on either side.

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

Reading is lazy end to end: :class:`StoreBackedTrace` holds only
per-execution metadata, and :class:`StoredExecution` reads its own rows
(:meth:`TraceStore.read_rows`, one ``read`` per column into a read-only
array) when asked for its columns, or one chunk window at a time through
the :class:`~repro.traces.trace.ExecutionLike` streaming protocol.
Nothing stays mapped or open between reads, so a process's memory
returns to its baseline once it drops the rows it read, however many
executions and stores it has read.  The rows read back are
**bit-identical** to the rows that
were packed: times round-trip as IEEE-754 doubles, all other fields are
integers or enum codes.  The same columns laid end to end are the serve
protocol's ``ROWS`` payload (:func:`encode_column_rows`,
:func:`decode_column_rows`).

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
import re
import tempfile
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Optional

from repro import faults
from repro.errors import TraceStoreError
from repro.traces.events import AccessType, ExitEvent, ForkEvent, TraceEvent
from repro.traces.trace import (
    COLUMNS,
    ApplicationTrace,
    ExecutionTrace,
    columns_from_events,
    events_from_columns,
    lifetimes_of,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Bump whenever the column layout or the manifest schema changes; old
#: stores are rejected with a clear error instead of being misread.
STORE_VERSION = 1

#: Default rows per chunk (~4.2 MB of columns at 66 bytes/row).
DEFAULT_CHUNK_ROWS = 65536

MANIFEST_NAME = "manifest.json"
_COLUMN_DIR = "columns"

#: AccessType values in code order (versioned by :data:`STORE_VERSION`
#: and self-described in the manifest).
_KIND_VALUES: tuple[str, ...] = tuple(kind.value for kind in AccessType)

#: Pickle protocol for fingerprint hashing (same as the artifact cache).
_PICKLE_PROTOCOL = 4


def _itemsize(spec: str) -> int:
    """Bytes per value of a :data:`COLUMNS` dtype spec (its last digit)."""
    return int(spec[-1])


#: Bytes per row when the columns are laid end to end (wire encoding).
EVENT_ROW_BYTES = sum(_itemsize(spec) for _, spec in COLUMNS)

#: A byte that is not an event type code (``etype``), and one that is not
#: an access kind code (``kind``): both columns hold one byte per row.
_UNKNOWN_ETYPE = re.compile(rb"[^\x00-\x02]")
_UNKNOWN_KIND = re.compile(rb"[^\x00-\x%02x]" % (len(_KIND_VALUES) - 1))


def _check_row_codes(etype, kind) -> None:
    """Raise :class:`TraceStoreError` naming the first row whose event
    type code, or whose access kind code on an I/O row, this build does
    not know.

    ``etype`` and ``kind`` are the two one-byte columns as any buffer
    (bytes read from a store's column files, or arrays), so a store is
    checked without NumPy.  A fork or exit row's ``kind`` is not a code
    and is not checked.
    """
    bad = _UNKNOWN_ETYPE.search(etype)
    if bad is not None:
        row = bad.start()
        raise TraceStoreError(
            f"row {row}: unknown event type code {int(etype[row])!r}"
        )
    for bad in _UNKNOWN_KIND.finditer(kind):
        row = bad.start()
        if etype[row] == 0:
            raise TraceStoreError(
                f"row {row}: unknown access kind code {int(kind[row])!r}"
            )


def encode_column_rows(columns: dict) -> bytes:
    """Serialize columns as rows laid end to end (the serve wire format).

    The payload is every column of :data:`COLUMNS`, in order, each as a
    packed array of one value per row — the same bytes a store chunk
    holds, concatenated instead of split across files.  This is the
    ``ROWS`` frame body of the serve protocol (:mod:`repro.serve`):
    :data:`EVENT_ROW_BYTES` per row, row count implied by the length.
    """
    import numpy as np

    return b"".join(
        np.ascontiguousarray(columns[name], dtype=np.dtype(spec)).tobytes()
        for name, spec in COLUMNS
    )


def decode_column_rows(payload: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`encode_column_rows` (bit-identical round trip).

    The payload comes from outside the process, so it is checked: a
    length off the row grid (a truncated frame can never decode to a
    shorter execution by accident), an unknown row type code or an
    unknown access kind code of an I/O row raises
    :class:`TraceStoreError`.  The columns are read-only views of
    ``payload``.
    """
    if len(payload) % EVENT_ROW_BYTES:
        raise TraceStoreError(
            f"row payload of {len(payload)} byte(s) is not a multiple "
            f"of the {EVENT_ROW_BYTES}-byte row size"
        )
    import numpy as np

    count = len(payload) // EVENT_ROW_BYTES
    columns = {}
    offset = 0
    for name, spec in COLUMNS:
        dtype = np.dtype(spec)
        columns[name] = np.frombuffer(payload, dtype=dtype, count=count,
                                      offset=offset)
        offset += count * dtype.itemsize
    _check_row_codes(columns["etype"], columns["kind"])
    return columns


def encode_event_rows(events: Iterable[TraceEvent]) -> bytes:
    """:func:`encode_column_rows` of event objects."""
    return encode_column_rows(columns_from_events(events))


def decode_event_rows(payload: bytes) -> list[TraceEvent]:
    """:func:`decode_column_rows` as event objects."""
    return events_from_columns(decode_column_rows(payload))


def _row_tuples(columns: dict) -> list[tuple]:
    """The canonical value tuple of every row, used for content hashing.

    ``("io", time, pid, pc, fd, kind value, inode, block start, block
    count)``, ``("fork", time, pid, parent pid)`` or ``("exit", time,
    pid)``: the unit :class:`TraceFingerprint` hashes.
    """
    kinds = _KIND_VALUES
    tuples: list[tuple] = []
    append = tuples.append
    for code, time, pid, pc, fd, kind, inode, start, count, aux in zip(
        *(columns[name].tolist() for name, _ in COLUMNS)
    ):
        if code == 0:
            append(("io", time, pid, pc, fd, kinds[kind], inode, start,
                    count))
        elif code == 1:
            append(("fork", time, pid, aux))
        else:
            append(("exit", time, pid))
    return tuples


class TraceFingerprint:
    """The provenance digest of one application's event content.

    A BLAKE2b digest seeded with ``store:<version>:<application>`` and
    updated once per execution with a canonical pickle of the execution
    header (index, sorted initial pids, row count) and one value tuple
    per row, read from its columns.  The store writer computes manifest fingerprints
    with it and :func:`repro.sim.artifact_cache.trace_fingerprint`
    computes in-memory ones, so equal content has one fingerprint
    wherever it lives.
    """

    __slots__ = ("_digest",)

    def __init__(self, application: str) -> None:
        self._digest = hashlib.blake2b(digest_size=20)
        self._digest.update(
            f"store:{STORE_VERSION}:{application}".encode("utf-8")
        )

    def add_execution(self, execution) -> None:
        """Fold in one execution (any ``ExecutionLike``), chunk by chunk."""
        tuples: list[tuple] = []
        for chunk in execution.iter_column_chunks():
            tuples.extend(_row_tuples(chunk))
        header = (
            execution.execution_index,
            tuple(sorted(execution.initial_pids)),
            len(tuples),
        )
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
        #: Column arrays not yet written, and how many rows they hold.
        self._buffers: dict[str, list[np.ndarray]] = {
            name: [] for name, _ in COLUMNS
        }
        self._buffered = 0
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

        Rows are copied column chunk by column chunk
        (``iter_column_chunks()``) — an in-memory
        :class:`~repro.traces.trace.ExecutionTrace` and a
        :class:`StoredExecution` being re-packed both work — and must
        already be in canonical order.
        """
        import numpy as np

        if self._closed:
            raise TraceStoreError("writer is closed")
        application = execution.application
        entry = self._app_state(application)
        row_start = self._rows
        io_rows = 0
        liveness: list[list] = []
        for chunk in execution.iter_column_chunks():
            etype = chunk["etype"]
            io_rows += int(np.count_nonzero(etype == 0))
            rows = np.flatnonzero(etype)
            for code, time, pid, parent in zip(
                *(chunk[name][rows].tolist()
                  for name in ("etype", "time", "pid", "aux"))
            ):
                liveness.append(["fork", time, pid, parent] if code == 1
                                else ["exit", time, pid])
            for name, spec in COLUMNS:
                self._buffers[name].append(
                    np.asarray(chunk[name], dtype=np.dtype(spec))
                )
            self._buffered += len(etype)
            self._rows += len(etype)
            while self._buffered >= self.chunk_rows:
                self._flush_rows(self.chunk_rows)
        self._digests[application].add_execution(execution)
        entry["io_events"] += io_rows
        entry["executions"].append({
            "index": execution.execution_index,
            "row_start": row_start,
            "rows": self._rows - row_start,
            "io_rows": io_rows,
            "initial_pids": sorted(execution.initial_pids),
            "start_time": execution.start_time,
            "end_time": execution.end_time,
            "liveness": liveness,
        })

    def _flush_rows(self, count: int) -> None:
        """Write the first ``count`` buffered rows to the column files."""
        import numpy as np

        for name, _ in COLUMNS:
            pending = self._buffers[name]
            block = pending[0] if len(pending) == 1 else np.concatenate(pending)
            self._files[name].write(block[:count].tobytes())
            self._buffers[name] = [block[count:]] if count < len(block) else []
        self._buffered -= count
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
        if self._buffered:
            self._flush_rows(self._buffered)
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
    protocol: :attr:`columns` reads this execution's rows, and
    :meth:`iter_column_chunks` and :meth:`iter_events` read one chunk
    window at a time, each from the column files on every call
    (:meth:`TraceStore.read_rows`); :meth:`liveness_events` returns the
    fork/exit subset straight from the manifest without reading a row.
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
            self._liveness = [
                ForkEvent(record[1], int(record[2]), int(record[3]))
                if record[0] == "fork"
                else ExitEvent(record[1], int(record[2]))
                for record in self._liveness_raw
            ]
        return self._liveness

    def chunk_windows(self) -> list[tuple[int, int]]:
        """This execution's row range clipped to the store's chunk grid."""
        return self._store.windows_for(
            self.row_start, self.row_start + self.event_count
        )

    def iter_column_chunks(self) -> Iterator[dict[str, np.ndarray]]:
        """Yield this execution's columns one chunk window at a time.

        Each window is read from the column files as it is reached — no
        event objects are materialized.  The page-cache filter's replay
        loop for a substituted cache object
        (:func:`repro.cache.filter.filter_execution` with ``cache=``)
        consumes these exactly as it consumes an in-memory execution's
        one chunk, so its memory stays bounded by the chunk grid.
        """
        for start, stop in self.chunk_windows():
            yield self._store.read_rows(start, stop)

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """Every row of this execution, read from the column files.

        Each access reads the rows again into read-only arrays; read it
        once per use.
        """
        return self._store.read_rows(
            self.row_start, self.row_start + self.event_count
        )

    def iter_events(self) -> Iterator[TraceEvent]:
        """Iterate every event in canonical order, chunk by chunk."""
        for start, stop in self.chunk_windows():
            yield from self._store.decode_rows(start, stop)

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
        return lifetimes_of(self)

    def materialize(self) -> ExecutionTrace:
        """An in-memory :class:`ExecutionTrace` with identical rows."""
        import numpy as np

        return ExecutionTrace(
            self.application, self.execution_index,
            {name: np.array(col) for name, col in self.columns.items()},
            self.initial_pids,
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

    :meth:`check` validates every column file against the manifest's row
    count without NumPy: a missing or truncated column file is
    quarantined and reported as a :class:`TraceStoreError`, and so is
    (without quarantine) a row with an unknown event type or access kind
    code.  Rows are read on demand, after that check, one row range at a
    time (:meth:`read_rows`); no file stays open or mapped between
    reads.  All decoding goes through :meth:`decode_rows`, which
    materializes one row window at a time.
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
        self._checked = False

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

    def _column_path(self, name: str) -> Path:
        return self.path / _COLUMN_DIR / f"{name}.bin"

    def _check_column_size(self, name: str, dtype_spec: str) -> None:
        path = self._column_path(name)
        faults.corrupt_cache_read(path)
        expected = self.rows * _itemsize(dtype_spec)
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

    def check(self) -> None:
        """Validate the column files once, without NumPy.

        Size-checks every column file against the manifest, then reads
        the one-byte ``etype`` and ``kind`` columns and checks every
        row's codes byte by byte, so no reader ever meets a code it
        cannot decode.  :meth:`read_rows` calls it first.
        """
        if self._checked:
            return
        for name, spec in COLUMNS:
            self._check_column_size(name, spec)
        try:
            _check_row_codes(*(
                self._column_path(name).read_bytes()
                for name in ("etype", "kind")
            ))
        except TraceStoreError as exc:
            raise TraceStoreError(
                f"store {self.path} is corrupt: {exc}; re-pack the store"
            ) from None
        self._checked = True

    def read_rows(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Rows ``[start, stop)`` of every column, keyed by name.

        The first read runs :meth:`check`.  Each column's byte range is
        read with one ``read`` into a read-only array, and the file is
        closed again: the arrays are the only thing a read leaves
        behind, so dropping them returns the memory, and a process keeps
        no descriptor per store it has read.  The window must lie inside
        the store's row range (see :meth:`decode_rows`).
        """
        self._check_rows(start, stop)
        self.check()
        import numpy as np

        count = max(0, stop - start)
        columns = {}
        for name, spec in COLUMNS:
            size = _itemsize(spec)
            path = self._column_path(name)
            try:
                with open(path, "rb", buffering=0) as stream:
                    stream.seek(start * size)
                    data = stream.read(count * size)
            except OSError as exc:
                raise TraceStoreError(
                    f"store column {path} could not be read ({exc}); the "
                    "store is corrupt"
                ) from None
            if len(data) != count * size:
                raise TraceStoreError(
                    f"store column {path} ended before row {stop}; the "
                    "store is corrupt — re-pack it"
                )
            columns[name] = np.frombuffer(data, dtype=np.dtype(spec))
        return columns

    def _check_rows(self, start: int, stop: int) -> None:
        """Reject row windows outside ``[0, rows)``.

        A read past the end of a column file comes back short without
        an error, so an off-by-one caller would read a *shorter* stream
        and simulate on truncated data.  Fail loudly instead.
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
        return events_from_columns(self.read_rows(start, stop), start)


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
