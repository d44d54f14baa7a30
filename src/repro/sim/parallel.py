"""Cell and progress types of the experiment execution layer.

Every experiment this repository runs — figure matrices, suite runs,
parameter sweeps, fleets — decomposes into independent *cells*: one
(application × predictor × configuration) simulation whose result is a
picklable :class:`~repro.sim.experiment.ApplicationResult` (a fused
cell returns one per predictor lane).  This module holds the types that
decomposition is written in:

* :class:`ExperimentCell` — a stable-indexed description of one cell;
* :class:`CellResult` — one finished cell with its wall time;
* :class:`CellProgress` — a per-cell progress event, and
  :func:`stderr_progress`, a ready-made hook that prints it;
* :func:`resolve_jobs` and :func:`fork_available` — the worker-count and
  platform checks the executor consults.

The one cell executor is :func:`repro.sim.resilience.run_cells`: it runs
the cells in-process with ``jobs=1`` (or without ``fork``), and on
per-attempt forked workers otherwise, and folds results in cell order
either way, so a pooled run is bit-identical to a serial one.
:class:`~repro.sim.experiment.ExperimentRunner` is the one runner that
builds cells for it.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.config import default_jobs

if TYPE_CHECKING:
    from repro.sim.experiment import ApplicationResult


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
    cell restored from a checkpoint); ``outcome`` is ``"ok"``,
    ``"retry"`` (a failed attempt that will be retried), ``"failed"``
    (terminal failure), or ``"resumed"``; ``degraded`` is set once the
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


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalize a worker-count request.

    ``None`` defers to :func:`repro.config.default_jobs` (the
    ``REPRO_JOBS`` environment variable, serial when unset); ``0`` or a
    negative count means "all cores".
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()
