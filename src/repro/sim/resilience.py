"""The cell executor: retries, timeouts, checkpoint/resume.

:func:`run_cells` is the one executor of the experiment cells every
matrix, suite, sweep and fleet decomposes into: independent
(application × predictor × configuration) simulations, each described
by an :class:`ExperimentCell` and returning a picklable
:class:`~repro.sim.experiment.ApplicationResult` (a fused cell returns
one per predictor lane).  It runs them in-process with ``jobs=1``
and otherwise on ``jobs`` long-lived forked workers, each forked once
and fed one cell attempt at a time, the costliest eligible cell first
(``cell_costs``).  It is built for long runs, where one crashed or hung
worker must not cost hours of completed work:

* **Per-cell retries** with capped exponential backoff.  The backoff
  jitter is drawn from a generator seeded by ``(seed, cell index,
  attempt)``, so retry timing is deterministic for a given policy.
* **Per-cell wall-clock timeouts.**  In pool mode a worker whose
  attempt passes its deadline (counted from dispatch) is killed
  (``SIGKILL``-hard), the attempt is retried, and the next dispatch
  forks a replacement; a worker that crashed is reaped and replaced
  the same way, while a worker whose cell raised keeps running.
  In-process execution honours the same timeout by running the attempt
  on a daemon thread and abandoning it on expiry.
* **Graceful degradation.**  Repeated pool incidents (worker crashes,
  spawn failures) flip the executor into in-process execution for the
  remaining cells instead of hammering a broken pool.
* **Terminal failure records.**  A cell that exhausts its attempts
  becomes a :class:`CellFailure` carrying every attempt's kind, message
  and traceback — the suite completes with a partial result set and a
  ledger instead of crashing.
* **One record per result.**  Every result a cell returns is one
  record, keyed by :func:`cell_key` and bound to the application it
  must name.  A finished cell's records are journalled to an
  append-only JSONL file (:class:`CellCheckpoint`), flushed and fsynced
  per record, and put in the artifact cache, both from this process.
  Before any worker starts, each cell is restored from the journal
  first and the cache second, so a killed multi-hour sweep resumes
  where it died, a fully cached matrix forks nothing, and any command
  reuses the records another one wrote.

Results fold in cell order whatever the worker count or completion
order, so a pooled run is bit-identical to an in-process one — asserted
by the equivalence tests.  Fail-fast is the policy
``ResiliencePolicy(max_attempts=1)``: a failed cell lets the others
finish, and :func:`raise_on_failures` then names every failed cell.

Fault injection (:mod:`repro.faults`) is re-exported here so chaos
scenarios and the ``repro faults`` CLI have a single import surface.
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import os
import pickle
import random
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro import faults
from repro.errors import CellTimeoutError, CheckpointError, ExecutionError
from repro.faults import (  # noqa: F401  (re-exported public surface)
    FAULT_PLAN_ENV_VAR,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
)
from repro.config import fork_available, resolve_jobs
from repro.sim.experiment import ApplicationResult

#: Canned chaos scenario used by ``repro faults`` and the CI chaos-smoke
#: job: one worker crash that exhausts every retry (a terminal cell
#: failure), one hung cell recovered by the timeout+retry path, one
#: corrupted artifact-cache entry recovered by quarantine+recompute, and
#: one malformed trace line surfacing a parse error.  ``repro faults``
#: runs two predictors over the six applications, which the fused path
#: decomposes into one cell per application, so the worker faults
#: target cells 3 and 5 of cells 0-5.
CANNED_CHAOS_PLAN = (
    "worker.crash,cell=3,attempts=99;"
    "worker.hang,cell=5,seconds=15;"
    "cache.corrupt-read,at=1;"
    "trace.malformed-line,at=5"
)

#: Checkpoint schema version (see :class:`CellCheckpoint`).
CHECKPOINT_FORMAT = 1

#: Pickle protocol for checkpointed results (matches the artifact cache).
_PICKLE_PROTOCOL = 4


@dataclass(frozen=True, slots=True)
class ExperimentCell:
    """One independent unit of an experiment matrix.

    ``index`` is the cell's stable position in the decomposition; the
    reducer folds results in index order, which pins down floating-point
    summation order and makes parallel runs bit-identical to serial.
    ``application`` and ``predictor`` are display labels for progress
    reporting; the orchestrator that built the cell interprets ``index``
    itself, so cells stay tiny on the wire.
    """

    index: int
    application: str
    predictor: str


@dataclass(frozen=True, slots=True)
class CellResult:
    """One finished cell: its description, result, and wall time."""

    cell: ExperimentCell
    result: ApplicationResult
    wall_time: float


@dataclass(frozen=True, slots=True)
class CellProgress:
    """Progress event fired per completed cell and per failed attempt.

    ``attempt`` is the attempt number the event reports on (0 for a
    cell restored from a checkpoint or served from a cache);
    ``outcome`` is ``"ok"``, ``"retry"`` (a failed attempt that will be
    retried), ``"failed"`` (terminal failure), ``"resumed"`` or
    ``"cached"``; ``degraded`` is set once the
    executor has fallen back from the worker pool to in-process
    execution.
    """

    cell: ExperimentCell
    wall_time: float
    completed: int
    total: int
    attempt: int = 1
    outcome: str = "ok"
    degraded: bool = False


#: Signature of a progress hook.
ProgressHook = Callable[[CellProgress], None]


def stderr_progress(event: CellProgress) -> None:
    """A ready-made progress hook: one line per cell on stderr.

    Retries and failures are annotated so long runs show what the
    recovery machinery is doing.
    """
    marker = ""
    if event.outcome == "resumed":
        marker = " (resumed from checkpoint)"
    elif event.outcome == "cached":
        marker = " (served from the artifact cache)"
    elif event.attempt > 1:
        marker = f" [attempt {event.attempt}]"
    if event.outcome == "retry":
        marker += " RETRYING"
    elif event.outcome == "failed":
        marker += " FAILED"
    if event.degraded:
        marker += " [degraded: in-process]"
    print(
        f"  [{event.completed}/{event.total}] "
        f"{event.cell.application} × {event.cell.predictor} "
        f"({event.wall_time:.2f} s){marker}",
        file=sys.stderr,
    )


@dataclass(frozen=True, slots=True)
class ResiliencePolicy:
    """Retry/timeout/degradation knobs of one resilient run.

    ``max_attempts`` bounds attempts per cell (1 = no retries);
    ``cell_timeout`` is the per-attempt wall-clock limit in seconds
    (``None`` = unlimited); backoff before attempt *n* is
    ``min(max_delay, base_delay * 2**(n-2))`` stretched by a
    deterministic jitter fraction drawn from ``seed``.  After
    ``degrade_after`` pool incidents (worker crashes or spawn failures)
    the executor stops using worker processes and finishes the remaining
    cells in-process.
    """

    max_attempts: int = 3
    cell_timeout: Optional[float] = None
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    degrade_after: int = 5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("backoff parameters must be non-negative")
        if self.degrade_after < 1:
            raise ValueError("degrade_after must be at least 1")

    def backoff(self, cell_index: int, attempt: int) -> float:
        """Delay before running ``attempt`` (>= 2) of one cell.

        Deterministic: the jitter multiplier depends only on
        ``(seed, cell_index, attempt)``.
        """
        base = min(self.max_delay, self.base_delay * (2 ** (attempt - 2)))
        if self.jitter <= 0 or base <= 0:
            return base
        unit = random.Random(
            f"{self.seed}:{cell_index}:{attempt}"
        ).random()
        return base * (1.0 + self.jitter * unit)


@dataclass(frozen=True, slots=True)
class RetryEvent:
    """One failed attempt of one cell (retried or terminal)."""

    cell: ExperimentCell
    attempt: int
    #: ``"crash"`` (worker died / could not spawn), ``"timeout"``, or
    #: ``"error"`` (the cell raised).
    kind: str
    message: str
    traceback: str = ""
    wall_time: float = 0.0


@dataclass(frozen=True, slots=True)
class CellFailure:
    """Terminal record of a cell that exhausted its attempts."""

    cell: ExperimentCell
    attempts: tuple[RetryEvent, ...]

    @property
    def last(self) -> RetryEvent:
        """The terminal (last) failed attempt."""
        return self.attempts[-1]


#: One executed cell's terminal outcome.
CellOutcome = Union[CellResult, CellFailure]

#: Key of one record: the application its result must name, and its
#: :func:`cell_key`.
RecordKey = tuple[str, str]

#: Record key(s) of one cell: one record key, or one per result of a
#: cell that returns a sequence of results (a fused cell's lanes).
CellKey = Union[RecordKey, tuple[RecordKey, ...]]


@dataclass(slots=True)
class RunLedger:
    """Everything a resilient run produced, in cell order."""

    outcomes: list[CellOutcome]
    retries: list[RetryEvent] = field(default_factory=list)
    degraded: bool = False
    resumed: int = 0
    #: Cells served, at least in part, from the artifact cache.
    cached: int = 0

    @property
    def results(self) -> list[CellResult]:
        """The successful cell outcomes, in cell order."""
        return [o for o in self.outcomes if isinstance(o, CellResult)]

    @property
    def failures(self) -> list[CellFailure]:
        """The terminally failed cell outcomes, in cell order."""
        return [o for o in self.outcomes if isinstance(o, CellFailure)]

    def render(self) -> str:
        """The human-readable failure/retry ledger."""
        failures = self.failures
        ok = len(self.outcomes) - len(failures)
        served = (
            f", {self.cached} served from the artifact cache"
            if self.cached else ""
        )
        lines = [
            f"resilience ledger: {len(self.outcomes)} cells — {ok} ok "
            f"({self.resumed} resumed from checkpoint{served}), "
            f"{len(failures)} failed, {len(self.retries)} failed "
            f"attempt(s), degraded={'yes' if self.degraded else 'no'}"
        ]
        terminal = {id(event) for f in failures for event in f.attempts}
        for failure in failures:
            cell = failure.cell
            lines.append(
                f"  cell {cell.index} {cell.application} × "
                f"{cell.predictor}: FAILED after "
                f"{len(failure.attempts)} attempt(s)"
            )
            for event in failure.attempts:
                lines.append(
                    f"    attempt {event.attempt}: {event.kind} — "
                    f"{event.message}"
                )
        recovered: dict[int, list[RetryEvent]] = {}
        for event in self.retries:
            if id(event) not in terminal:
                recovered.setdefault(event.cell.index, []).append(event)
        for index in sorted(recovered):
            events = recovered[index]
            cell = events[0].cell
            lines.append(
                f"  cell {cell.index} {cell.application} × "
                f"{cell.predictor}: recovered after "
                f"{len(events)} failed attempt(s) "
                f"({'; '.join(f'{e.kind}: {e.message}' for e in events)})"
            )
        return "\n".join(lines)


@dataclass(slots=True)
class MatrixReport:
    """A resilient matrix run: successful cells plus the ledger."""

    matrix: dict[str, dict[str, ApplicationResult]]
    ledger: RunLedger

    @property
    def complete(self) -> bool:
        """True when every cell produced a result."""
        return not self.ledger.failures


# ---------------------------------------------------------------------------
# Checkpoint journal.
# ---------------------------------------------------------------------------


def cell_key(
    fingerprint: str,
    predictor_label: str,
    config: object,
    *,
    mode: str = "global",
    multistate: bool = False,
) -> str:
    """Content-hash key of one record, in the journal and the artifact
    cache alike.

    Built from the same primitives as the artifact cache: the trace
    content fingerprint of the record's application, the predictor
    label (sweeps embed the swept value in it), and the full simulation
    configuration — any input change orphans the record instead of
    serving a stale result.
    """
    from repro.sim.artifact_cache import SCHEMA_VERSION, _digest

    return _digest(
        "cell", SCHEMA_VERSION, fingerprint, predictor_label, mode,
        bool(multistate), repr(config),
    )


class CellCheckpoint:
    """Append-only JSONL journal of completed records.

    One line per record, one record per (application, predictor)
    result: a JSON object carrying the record key, display metadata,
    and the pickled :class:`~repro.sim.experiment.ApplicationResult`
    (base64).  Records are flushed and fsynced as they are written, so
    a killed run loses at most the cell in flight; a torn final line
    (the only corruption an append-only file can suffer) is skipped on
    load and overwritten by the resumed run's appends.

    A journal optionally opens with one ``type: "provenance"`` record
    describing the run shape that wrote it (execution mode, multistate;
    the fleet's shared-table mode adds its variant-set fingerprint).
    :meth:`declare_provenance` compares a resuming run's shape against
    that header and refuses a mismatched resume with
    :class:`~repro.errors.CheckpointError`.  Matrix runs and sweeps
    journal one record per (application, predictor) on either
    execution path, so they no longer declare which path wrote them;
    older journals whose header still carries ``fused`` and
    ``variant_set`` keys load and resume, because only keys present in
    both headers are compared.  Journals written before this record
    existed carry no header and resume as before.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike[str]],
        *,
        resume: bool = True,
        provenance: Optional[dict] = None,
    ) -> None:
        self.path = Path(path)
        self._completed: dict[str, tuple[Any, float]] = {}
        self._stream = None
        #: Undecodable lines ignored while loading (torn tail, garbage).
        self.skipped_lines = 0
        #: Run-shape header found on load (``None`` for legacy journals).
        self.provenance: Optional[dict] = None
        self._header_pending = False
        if resume and self.path.exists():
            self._load()
        #: Entries found on load (before any new records).
        self.loaded = len(self._completed)
        if provenance is not None:
            self.declare_provenance(provenance)

    def _load(self) -> None:
        raw = self.path.read_bytes()
        offset = 0
        valid_end = 0
        for chunk in raw.split(b"\n"):
            end = min(len(raw), offset + len(chunk) + 1)  # +1: the \n
            line = chunk.decode("utf-8", errors="replace").strip()
            offset = end
            if not line:
                valid_end = end
                continue
            try:
                record = json.loads(line)
                if record.get("type") == "provenance":
                    header = record.get("provenance")
                    if isinstance(header, dict):
                        self.provenance = header
                    valid_end = end
                    continue
                if record.get("type") != "cell":
                    valid_end = end
                    continue
                key = str(record["key"])
                result = pickle.loads(
                    base64.b64decode(record["result"])
                )
                wall = float(record.get("wall_time", 0.0))
            except Exception:
                self.skipped_lines += 1
                continue
            self._completed[key] = (result, wall)
            valid_end = end
        if valid_end < len(raw):
            # The journal ends in a torn partial record (the only
            # corruption an append-only fsynced file can suffer).  Cut
            # the file back to the last intact line *before* resuming:
            # appending after the tear would concatenate the next record
            # onto the partial line and silently lose a completed cell.
            self._truncate_torn_tail(valid_end, len(raw))
        elif raw and not raw.endswith(b"\n"):
            # Intact final record missing only its newline: terminate it
            # so the resumed run's appends start on a fresh line.
            with open(self.path, "ab") as stream:
                stream.write(b"\n")

    def _truncate_torn_tail(self, valid_end: int, size: int) -> None:
        import warnings

        try:
            with open(self.path, "r+b") as stream:
                stream.truncate(valid_end)
        except OSError as exc:
            warnings.warn(
                f"checkpoint {self.path} has a torn final line that "
                f"could not be truncated ({exc}); appended records may "
                "be corrupted",
                RuntimeWarning,
                stacklevel=3,
            )
            return
        warnings.warn(
            f"checkpoint {self.path} ended in a torn partial record "
            f"({size - valid_end} byte(s) discarded, crash mid-write?); "
            "resuming from the last intact line",
            RuntimeWarning,
            stacklevel=3,
        )

    def declare_provenance(self, provenance: dict) -> None:
        """Declare the resuming run's shape; refuse a mismatched journal.

        Only the keys present in *both* the declared and the journalled
        provenance are compared, so a matrix run (which declares no
        ``variant_set`` — its cell keys embed the predictor label
        directly) never conflicts with a run over a different predictor
        list, nor with an older journal that also recorded which
        execution path wrote it.  Worker count is deliberately not
        validated: results are bit-identical at any ``--jobs``, so a
        journal may be resumed with a different pool size.
        """
        declared = {str(k): v for k, v in provenance.items()}
        if self.provenance is not None:
            mismatched = {
                key: (self.provenance[key], declared[key])
                for key in sorted(set(declared) & set(self.provenance))
                if self.provenance[key] != declared[key]
            }
            if mismatched:
                detail = "; ".join(
                    f"{key}: checkpoint has {old!r}, this run has {new!r}"
                    for key, (old, new) in mismatched.items()
                )
                raise CheckpointError(
                    f"checkpoint {self.path} was written by an "
                    f"incompatible run ({detail}); resume with a "
                    "matching configuration or start a fresh checkpoint "
                    "file"
                )
            # Same shape: keep the journal's header, nothing to rewrite.
            return
        self.provenance = declared
        self._header_pending = True

    def __len__(self) -> int:
        return len(self._completed)

    def get(self, key: str) -> Optional[tuple[Any, float]]:
        """``(result, wall_time)`` of a completed cell, or ``None``."""
        return self._completed.get(key)

    def record(
        self,
        key: str,
        cell: ExperimentCell,
        result: Any,
        wall_time: float,
    ) -> None:
        """Journal one completed record (atomic append + flush + fsync)."""
        if self._header_pending:
            self._header_pending = False
            self._append({
                "type": "provenance",
                "format": CHECKPOINT_FORMAT,
                "provenance": self.provenance,
            })
        record = {
            "type": "cell",
            "format": CHECKPOINT_FORMAT,
            "key": key,
            "index": cell.index,
            "application": cell.application,
            "predictor": cell.predictor,
            "wall_time": wall_time,
            "result": base64.b64encode(
                pickle.dumps(result, _PICKLE_PROTOCOL)
            ).decode("ascii"),
        }
        self._append(record)
        self._completed[key] = (result, wall_time)

    def _append(self, record: dict) -> None:
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, "a", encoding="utf-8")
        self._stream.write(json.dumps(record) + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def close(self) -> None:
        """Close the journal stream (idempotent)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "CellCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _names(result: Any, application: str) -> bool:
    """The serving rule for a stored record, journalled or cached: an
    ``ApplicationResult`` of the application its key was built for."""
    return (
        isinstance(result, ApplicationResult)
        and result.application == application
    )


def _journalled(
    checkpoint: Optional[CellCheckpoint], record: RecordKey
) -> Optional[tuple[Any, float]]:
    """``(result, wall)`` of a journalled record the rule serves."""
    entry = None if checkpoint is None else checkpoint.get(record[1])
    if entry is not None and _names(entry[0], record[0]):
        return entry
    return None


def is_recorded(
    record: RecordKey, checkpoint: Optional[CellCheckpoint], cache
) -> bool:
    """Whether :func:`run_cells` will find ``record`` without running it.

    True for a journalled result that passes the serving rule, or for an
    entry file present in the artifact cache: a stat, not a read.  The
    entry is read, and checked, when ``run_cells`` restores it.
    """
    return _journalled(checkpoint, record) is not None or (
        cache is not None and cache.path_for(record[1]).exists()
    )


def _split(key: CellKey) -> tuple[tuple[RecordKey, ...], bool]:
    """A cell key's record keys, and whether it is a single record key
    (the cell returns one result, not a sequence of them)."""
    single = bool(key) and isinstance(key[0], str)
    return ((key,) if single else key), single  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# The executor.
# ---------------------------------------------------------------------------

#: Cell runner inherited by forked workers (see _worker_main).
_CHILD_RUN_CELL: Optional[
    Callable[[ExperimentCell], ApplicationResult]
] = None


class _Pending:
    """Mutable per-cell execution state (position, cost, attempt,
    history)."""

    __slots__ = ("position", "cell", "cost", "attempt", "eligible_at",
                 "events")

    def __init__(self, position: int, cell: ExperimentCell,
                 cost: int) -> None:
        self.position = position
        self.cell = cell
        self.cost = cost
        self.attempt = 1
        self.eligible_at = 0.0
        self.events: list[RetryEvent] = []


def _dispatch_order(item: _Pending) -> tuple[int, int]:
    """The costliest cell first, ties (and uncosted cells) by position."""
    return -item.cost, item.position


class _Worker:
    """One long-lived forked worker and the attempt it is running."""

    __slots__ = ("process", "conn", "item", "started", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.item: Optional[_Pending] = None
        self.started = 0.0
        self.deadline: Optional[float] = None


def _worker_main(conn, inherited) -> None:
    """Run cell attempts in a forked worker until told to stop.

    Each message is ``(cell, attempt)`` and is answered with one ``ok``
    or ``err`` payload; a cell that raises leaves the worker running.
    ``None``, or a pipe the parent closed, ends the loop.  ``inherited``
    are the parent's ends of this worker's and the other workers' pipes,
    which the fork copied: closing them lets each worker see the
    parent's end close.  An interrupt is the parent's to handle (it
    stops or kills every worker), so the worker ignores ``SIGINT``.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    faults.mark_worker_process()
    assert _CHILD_RUN_CELL is not None, "worker forked without a runner"
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        cell, attempt = message
        try:
            start = time.perf_counter()
            faults.worker_gate(cell.index, cell.application, attempt)
            result = _CHILD_RUN_CELL(cell)
            payload = ("ok", result, time.perf_counter() - start)
        except Exception as exc:
            payload = (
                "err", type(exc).__name__, str(exc), traceback.format_exc()
            )
        try:
            conn.send(payload)
        except Exception:
            try:
                conn.send((
                    "err", "SerializationError",
                    "cell result could not be pickled", "",
                ))
            except Exception:
                break
    conn.close()


class _Executor:
    """State shared by the pool and in-process execution paths."""

    def __init__(
        self,
        cells: Sequence[ExperimentCell],
        run_cell: Callable[[ExperimentCell], ApplicationResult],
        policy: ResiliencePolicy,
        progress: Optional[ProgressHook],
        checkpoint: Optional[CellCheckpoint],
        keys: Optional[Sequence[CellKey]],
        costs: Optional[Sequence[int]],
        cache,
    ) -> None:
        self.cells = cells
        self.run_cell = run_cell
        self.policy = policy
        self.progress = progress
        self.checkpoint = checkpoint
        self.keys = keys
        self.costs = costs
        self.cache = cache
        self.total = len(cells)
        self.outcomes: list[Optional[CellOutcome]] = [None] * self.total
        self.retries: list[RetryEvent] = []
        self.completed = 0
        self.resumed = 0
        self.cached = 0
        self.degraded = False
        self.incidents = 0

    # -- shared bookkeeping -------------------------------------------------

    def _emit(self, cell: ExperimentCell, wall: float, *, attempt: int,
              outcome: str) -> None:
        if self.progress is not None:
            self.progress(CellProgress(
                cell, wall, self.completed, self.total,
                attempt=attempt, outcome=outcome, degraded=self.degraded,
            ))

    def _read(self, record: RecordKey) -> Optional[tuple[Any, float, bool]]:
        """``(result, wall, journalled)`` of one stored record, from the
        journal first and the cache second, or ``None``."""
        entry = _journalled(self.checkpoint, record)
        if entry is not None:
            return entry[0], entry[1], True
        application, key = record
        if self.cache is not None:
            start = time.perf_counter()
            hit, value = self.cache.get(key)
            if hit and _names(value, application):
                return value, time.perf_counter() - start, False
        return None

    def _journal(self, cell: ExperimentCell, record: RecordKey,
                 result: Any, wall: float) -> None:
        application, key = record
        if self.checkpoint is not None:
            self.checkpoint.record(
                key, ExperimentCell(cell.index, application, cell.predictor),
                result, wall,
            )

    def _restore(self, position: int) -> bool:
        """Restore one cell if every one of its records is stored: from
        the journal alone it is ``resumed``, else ``cached``, and the
        records the cache served are journalled like run ones."""
        cell = self.cells[position]
        records, single = _split(self.keys[position])  # type: ignore[index]
        entries = []
        for record in records:
            entry = self._read(record)
            if entry is None:
                return False
            entries.append(entry)
        results = [result for result, _, _ in entries]
        wall = sum(share for _, share, _ in entries)
        self.outcomes[position] = CellResult(
            cell=cell, result=results[0] if single else results,
            wall_time=wall,
        )
        served = [
            (record, result, share)
            for record, (result, share, journalled) in zip(records, entries)
            if not journalled
        ]
        for record, result, share in served:
            self._journal(cell, record, result, share)
        if served:
            self.cached += 1
        else:
            self.resumed += 1
        self.completed += 1
        self._emit(cell, wall, attempt=0,
                   outcome="cached" if served else "resumed")
        return True

    def restore(self) -> list[_Pending]:
        """Terminal outcomes for every stored cell; the rest as pending."""
        stored = self.keys is not None and (
            self.checkpoint is not None or self.cache is not None
        )
        return [
            _Pending(position, cell,
                     0 if self.costs is None else self.costs[position])
            for position, cell in enumerate(self.cells)
            if not (stored and self._restore(position))
        ]

    def success(self, item: _Pending, result: ApplicationResult,
                wall: float) -> None:
        self.outcomes[item.position] = CellResult(
            cell=item.cell, result=result, wall_time=wall
        )
        if self.keys is not None:
            records, single = _split(self.keys[item.position])
            # One record per result, each carrying its share of the
            # cell's wall time.
            for record, value in zip(
                records, [result] if single else result, strict=True
            ):
                self._journal(item.cell, record, value, wall / len(records))
                if self.cache is not None:
                    self.cache.put(record[1], value)
        self.completed += 1
        self._emit(item.cell, wall, attempt=item.attempt, outcome="ok")

    def failure(self, item: _Pending, kind: str, message: str,
                tb: str, wall: float) -> bool:
        """Record a failed attempt; ``True`` if the cell is terminal."""
        event = RetryEvent(
            cell=item.cell, attempt=item.attempt, kind=kind,
            message=message, traceback=tb, wall_time=wall,
        )
        item.events.append(event)
        self.retries.append(event)
        if item.attempt >= self.policy.max_attempts:
            self.outcomes[item.position] = CellFailure(
                cell=item.cell, attempts=tuple(item.events)
            )
            self.completed += 1
            self._emit(item.cell, wall, attempt=item.attempt,
                       outcome="failed")
            return True
        self._emit(item.cell, wall, attempt=item.attempt, outcome="retry")
        item.attempt += 1
        item.eligible_at = (
            time.monotonic()
            + self.policy.backoff(item.cell.index, item.attempt)
        )
        return False

    def ledger(self) -> RunLedger:
        assert all(outcome is not None for outcome in self.outcomes)
        return RunLedger(
            outcomes=list(self.outcomes),  # type: ignore[arg-type]
            retries=self.retries,
            degraded=self.degraded,
            resumed=self.resumed,
            cached=self.cached,
        )

    # -- in-process path ----------------------------------------------------

    def _attempt_in_process(self, item: _Pending) -> ApplicationResult:
        """One attempt in this process, honouring the cell timeout.

        With a timeout the attempt runs on a daemon thread that is
        abandoned on expiry — the only portable way to bound an
        in-process call; the abandoned thread finishes (or sleeps out
        its injected hang) in the background.
        """
        def invoke() -> ApplicationResult:
            faults.worker_gate(
                item.cell.index, item.cell.application, item.attempt
            )
            return self.run_cell(item.cell)

        timeout = self.policy.cell_timeout
        if timeout is None:
            return invoke()
        box: dict[str, Any] = {}

        def target() -> None:
            try:
                box["value"] = invoke()
            except BaseException as exc:  # delivered to the caller below
                box["error"] = exc

        thread = threading.Thread(
            target=target, daemon=True,
            name=f"repro-cell-{item.cell.index}-attempt-{item.attempt}",
        )
        thread.start()
        thread.join(timeout)
        if thread.is_alive():
            raise CellTimeoutError(
                f"cell {item.cell.index} ({item.cell.application} × "
                f"{item.cell.predictor}) exceeded the {timeout:g} s "
                "wall-clock timeout (in-process attempt abandoned)"
            )
        if "error" in box:
            raise box["error"]
        return box["value"]

    def run_in_process(self, pending: list[_Pending]) -> None:
        """Execute pending cells in this process, in position order."""
        for item in sorted(pending, key=lambda entry: entry.position):
            while True:
                delay = item.eligible_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                start = time.perf_counter()
                try:
                    result = self._attempt_in_process(item)
                except Exception as exc:
                    wall = time.perf_counter() - start
                    kind = (
                        "timeout" if isinstance(exc, CellTimeoutError)
                        else "error"
                    )
                    message = f"{type(exc).__name__}: {exc}"
                    if self.failure(item, kind, message,
                                    traceback.format_exc(), wall):
                        break
                else:
                    self.success(item, result, time.perf_counter() - start)
                    break

    # -- pool path ----------------------------------------------------------

    def _requeue(self, queue: list[_Pending], item: _Pending,
                 terminal: bool) -> None:
        if not terminal:
            queue.append(item)

    def _dispatch(self, context, workers: list[_Worker], item: _Pending,
                  queue: list[_Pending]) -> None:
        """Send one attempt to an idle worker, or to a fresh fork.

        A fork that fails, or a send to a worker that died while idle,
        fails the attempt as a crash (a pool incident).
        """
        worker = next((w for w in workers if w.item is None), None)
        if worker is None:
            parent_conn, child_conn = context.Pipe()
            inherited = [parent_conn] + [other.conn for other in workers]
            process = context.Process(
                target=_worker_main, args=(child_conn, inherited),
                daemon=True,
            )
            try:
                process.start()
            except OSError as exc:
                parent_conn.close()
                child_conn.close()
                self.incidents += 1
                terminal = self.failure(
                    item, "crash", f"could not spawn worker: {exc}", "", 0.0
                )
                self._requeue(queue, item, terminal)
                return
            child_conn.close()
            worker = _Worker(process, parent_conn)
            workers.append(worker)
        worker.item = item
        worker.started = time.monotonic()
        worker.deadline = (
            worker.started + self.policy.cell_timeout
            if self.policy.cell_timeout is not None else None
        )
        try:
            worker.conn.send((item.cell, item.attempt))
        except OSError:
            self._drop(worker, workers, queue, timed_out=False)

    def _answer(self, worker: _Worker, workers: list[_Worker],
                queue: list[_Pending]) -> None:
        """Take a busy worker's payload; EOF means it crashed."""
        try:
            payload = worker.conn.recv()
        except (EOFError, OSError):
            self._drop(worker, workers, queue, timed_out=False)
            return
        item, worker.item = worker.item, None
        if payload[0] == "ok":
            _, result, child_wall = payload
            self.success(item, result, child_wall)
            return
        _, error_type, message, tb = payload
        terminal = self.failure(
            item, "error", f"{error_type}: {message}", tb,
            time.monotonic() - worker.started,
        )
        self._requeue(queue, item, terminal)

    def _drop(self, worker: _Worker, workers: list[_Worker],
              queue: list[_Pending], *, timed_out: bool) -> None:
        """Fail the attempt of a worker that crashed, or SIGKILL one past
        its deadline, and reap it; the next dispatch that finds no idle
        worker forks its replacement."""
        if timed_out:
            worker.process.kill()
        worker.process.join()
        worker.conn.close()
        workers.remove(worker)
        if timed_out:
            kind = "timeout"
            message = (
                f"cell exceeded the {self.policy.cell_timeout:g} s "
                "wall-clock timeout (worker killed)"
            )
        else:
            self.incidents += 1
            kind = "crash"
            message = (
                "worker process died without a result (exit code "
                f"{worker.process.exitcode})"
            )
        terminal = self.failure(
            worker.item, kind, message, "", time.monotonic() - worker.started
        )
        self._requeue(queue, worker.item, terminal)

    def run_pool(self, pending: list[_Pending], jobs: int) -> None:
        """Execute pending cells on at most ``jobs`` long-lived workers.

        Each worker is forked at its first dispatch and runs one attempt
        at a time until the call ends.  Free workers take the costliest
        eligible cell first.  A crashed worker is reaped and a hung one
        killed; a later dispatch forks a replacement, so neither poisons
        the other workers.  Once ``policy.degrade_after`` pool incidents
        accumulate, in-flight attempts are drained and the remaining
        cells run in-process.  Whatever way the call ends, idle workers
        are told to stop, busy ones are killed, and all are joined.
        """
        global _CHILD_RUN_CELL
        context = multiprocessing.get_context("fork")
        queue: list[_Pending] = list(pending)
        workers: list[_Worker] = []

        def busy() -> dict[Any, _Worker]:
            return {w.conn: w for w in workers if w.item is not None}

        _CHILD_RUN_CELL = self.run_cell
        try:
            while True:
                now = time.monotonic()
                if not self.degraded and (
                    self.incidents >= self.policy.degrade_after
                ):
                    self.degraded = True
                # Hand every free worker slot the costliest eligible cell.
                while not self.degraded and len(busy()) < jobs:
                    eligible = [
                        item for item in queue if item.eligible_at <= now
                    ]
                    if not eligible:
                        break
                    item = min(eligible, key=_dispatch_order)
                    queue.remove(item)
                    self._dispatch(context, workers, item, queue)
                running = busy()
                if not running:
                    if self.degraded or not queue:
                        break
                    # Everything pending is backing off; sleep to the
                    # earliest eligibility and retry the fill.
                    wake = min(item.eligible_at for item in queue)
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue
                # Wait for a result, the next deadline, or the next
                # backoff expiry — whichever comes first.
                waits = [
                    worker.deadline - now
                    for worker in running.values()
                    if worker.deadline is not None
                ]
                if queue and not self.degraded and len(running) < jobs:
                    waits.extend(item.eligible_at - now for item in queue)
                timeout = max(0.01, min(waits)) if waits else None
                for conn in mp_connection.wait(list(running), timeout):
                    self._answer(running.pop(conn), workers, queue)
                now = time.monotonic()
                for conn, worker in running.items():
                    if worker.deadline is not None and now >= worker.deadline:
                        if conn.poll():
                            continue  # result arrived at the wire
                        self._drop(worker, workers, queue, timed_out=True)
        finally:
            _CHILD_RUN_CELL = None
            for worker in workers:
                if worker.item is None:
                    try:
                        worker.conn.send(None)
                    except OSError:
                        pass
                else:
                    worker.process.kill()
            for worker in workers:
                worker.process.join()
                worker.conn.close()
        if queue:
            # Degraded: finish the remaining cells in-process.
            self.run_in_process(queue)


def run_cells(
    cells: Iterable[ExperimentCell],
    run_cell: Callable[[ExperimentCell], ApplicationResult],
    *,
    jobs: Optional[int] = None,
    policy: Optional[ResiliencePolicy] = None,
    progress: Optional[ProgressHook] = None,
    checkpoint: Optional[
        Union[CellCheckpoint, str, os.PathLike[str]]
    ] = None,
    cell_keys: Optional[Sequence[CellKey]] = None,
    cell_costs: Optional[Sequence[int]] = None,
    provenance: Optional[dict] = None,
    cache=None,
    prepare: Optional[Callable[[list[ExperimentCell]], None]] = None,
) -> RunLedger:
    """Execute every cell; outcomes come back in cell order.

    With ``jobs`` > 1 (and ``fork`` available) the cells run on
    ``min(jobs, cells left to run)`` long-lived forked workers, one
    attempt per worker at a time; otherwise every cell runs in this
    process, in order.  Failures are retried under ``policy`` (default
    :class:`ResiliencePolicy`) and terminal failures become
    :class:`CellFailure` entries instead of aborting the run.

    ``cell_costs`` give each cell's expected cost (its application's row
    count): a free worker takes the costliest eligible cell first, so
    the longest cell does not start last.  Without costs, and on the
    in-process path, cells run in cell order.

    ``cell_keys`` name each cell's records: one ``(application, key)``
    pair, or a tuple of pairs for a cell returning a sequence of
    results.  With ``checkpoint`` (a :class:`CellCheckpoint` or a path)
    or ``cache`` (an :class:`~repro.sim.artifact_cache.ArtifactCache`),
    this function alone reads and writes records.  Before any cell
    runs, each record is read from the journal first and the cache
    second, and served only if it is an ``ApplicationResult`` naming
    its application; a cell whose every record is served is restored,
    and the records the cache served are journalled.  A cell that
    succeeds has each record journalled and put, from this process.
    ``provenance`` describes the run shape (execution mode, multistate)
    and makes a resume from a journal written by an incompatible run
    fail with :class:`~repro.errors.CheckpointError` instead of
    silently mixing result shapes.

    ``prepare`` then receives the cells left to run, in cell order,
    before any of them runs or a worker starts — the place to warm
    state that forked workers inherit.  Nothing is forked when every
    cell is restored.
    """
    cell_list = list(cells)
    policy = policy or ResiliencePolicy()
    keys = list(cell_keys) if cell_keys is not None else None
    costs = list(cell_costs) if cell_costs is not None else None
    for name, given in (("cell_keys", keys), ("cell_costs", costs)):
        if given is not None and len(given) != len(cell_list):
            raise ValueError(
                f"{name} length {len(given)} != cells length "
                f"{len(cell_list)}"
            )
    owns_checkpoint = False
    if checkpoint is not None and not isinstance(checkpoint, CellCheckpoint):
        checkpoint = CellCheckpoint(checkpoint)
        owns_checkpoint = True
    if keys is None and (checkpoint is not None or cache is not None):
        raise ValueError("checkpointing and caching need cell_keys")
    if checkpoint is not None and provenance is not None:
        try:
            checkpoint.declare_provenance(provenance)
        except CheckpointError:
            if owns_checkpoint:
                checkpoint.close()
            raise
    executor = _Executor(
        cell_list, run_cell, policy, progress, checkpoint, keys, costs, cache
    )
    try:
        pending = executor.restore()
        if pending:
            if prepare is not None:
                prepare([item.cell for item in pending])
            workers = min(resolve_jobs(jobs), len(pending))
            if workers > 1 and fork_available():
                executor.run_pool(pending, workers)
            else:
                executor.run_in_process(pending)
        return executor.ledger()
    finally:
        if owns_checkpoint:
            checkpoint.close()  # type: ignore[union-attr]


def raise_on_failures(ledger: RunLedger, what: str) -> None:
    """Raise :class:`~repro.errors.ExecutionError` if any cell failed."""
    if ledger.failures:
        raise ExecutionError(
            f"{what} completed with {len(ledger.failures)} failed "
            f"cell(s):\n{ledger.render()}"
        )
