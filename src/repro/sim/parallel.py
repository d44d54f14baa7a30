"""Parallel experiment execution (cells over a process pool).

Every experiment this repository runs — figure matrices, suite runs,
parameter sweeps — decomposes into independent *cells*: one
(application × predictor × configuration) simulation whose result is a
picklable :class:`~repro.sim.experiment.ApplicationResult`.  This module
owns that decomposition:

* :class:`ExperimentCell` — a stable-indexed description of one cell;
* :func:`execute_cells` — run cells serially or on a
  :class:`~concurrent.futures.ProcessPoolExecutor`, returning results in
  cell order so downstream reductions are **bit-identical** regardless of
  worker count or completion order;
* :class:`ParallelExperimentRunner` — an
  :class:`~repro.sim.experiment.ExperimentRunner` whose suite-level
  entry points (:meth:`run_suite`, :meth:`run_matrix`) fan cells out
  across ``jobs`` workers;
* :class:`CellProgress` — a per-cell timing/progress event for observing
  long sweeps.

Worker strategy: the pool uses the ``fork`` start method and passes only
the (tiny, picklable) cells through the pipe.  The cell *runner* — a
closure over the suite, the per-point configurations, and any
user-supplied spec factories, none of which need to be picklable — is
installed in a module global before the pool starts and reaches the
workers by fork inheritance.  The parent pre-warms the memoized
cache-filtering pass first, so every worker inherits the filtered traces
copy-on-write instead of redoing the (expensive) filtering per process.
On platforms without ``fork`` (or with ``jobs=1``) execution falls back
to a plain in-process loop over the same cells with the same fold order,
which is what makes the serial/parallel equivalence exact.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro import faults
from repro.config import SimulationConfig, default_jobs
from repro.sim.experiment import ApplicationResult, ExperimentRunner
from repro.traces.trace import ApplicationTrace

#: The cell runner the forked workers inherit (see module docstring).
_WORKER_RUN_CELL: Optional[Callable[["ExperimentCell"], ApplicationResult]] = (
    None
)


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
    """Progress event fired per completed cell (and, under the resilient
    executor, per failed attempt).

    ``attempt`` is the attempt number the event reports on (0 for a
    cell restored from a checkpoint); ``outcome`` is ``"ok"``,
    ``"retry"`` (a failed attempt that will be retried), ``"failed"``
    (terminal failure), or ``"resumed"``; ``degraded`` is set once the
    resilient executor has fallen back from the worker pool to
    in-process execution.  Plain :func:`execute_cells` always reports
    ``attempt=1, outcome="ok"``.
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

    Retries and failures from the resilient executor are annotated so
    long runs show what the recovery machinery is doing.
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


def _worker_invoke(cell: ExperimentCell) -> tuple[ApplicationResult, float]:
    """Run one cell inside a pool worker (timed)."""
    assert _WORKER_RUN_CELL is not None, "worker forked without a cell runner"
    start = time.perf_counter()
    faults.worker_gate(cell.index, cell.application, 1)
    result = _WORKER_RUN_CELL(cell)
    return result, time.perf_counter() - start


def _execute_serial(
    cells: Sequence[ExperimentCell],
    run_cell: Callable[[ExperimentCell], ApplicationResult],
    progress: Optional[ProgressHook],
) -> list[CellResult]:
    out: list[CellResult] = []
    for completed, cell in enumerate(cells, start=1):
        start = time.perf_counter()
        faults.worker_gate(cell.index, cell.application, 1)
        result = run_cell(cell)
        wall = time.perf_counter() - start
        out.append(CellResult(cell=cell, result=result, wall_time=wall))
        if progress is not None:
            progress(CellProgress(cell, wall, completed, len(cells)))
    return out


def execute_cells(
    cells: Iterable[ExperimentCell],
    run_cell: Callable[[ExperimentCell], ApplicationResult],
    *,
    jobs: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
) -> list[CellResult]:
    """Execute every cell and return results **in cell order**.

    With ``jobs`` > 1 (and ``fork`` available) the cells run on a
    process pool; otherwise in-process, in order.  Either way the
    returned list is ordered like ``cells``, so any fold over it is
    deterministic — parallel output is bit-identical to serial.
    """
    cell_list = list(cells)
    if not cell_list:
        return []
    workers = min(resolve_jobs(jobs), len(cell_list))
    if workers <= 1 or not fork_available():
        return _execute_serial(cell_list, run_cell, progress)

    global _WORKER_RUN_CELL
    _WORKER_RUN_CELL = run_cell
    out: list[Optional[CellResult]] = [None] * len(cell_list)
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=faults.mark_worker_process,
        ) as pool:
            futures = {
                pool.submit(_worker_invoke, cell): position
                for position, cell in enumerate(cell_list)
            }
            completed = 0
            try:
                for future in as_completed(futures):
                    position = futures[future]
                    result, wall = future.result()
                    cell = cell_list[position]
                    out[position] = CellResult(
                        cell=cell, result=result, wall_time=wall
                    )
                    completed += 1
                    if progress is not None:
                        progress(
                            CellProgress(
                                cell, wall, completed, len(cell_list)
                            )
                        )
            except BaseException:
                # One bad cell must not leave the run wedged: cancel
                # every future that has not started (exiting the `with`
                # block alone would still *run* queued cells) and shut
                # the pool down before propagating.  The resilient
                # executor (repro.sim.resilience) is the recovery path;
                # this one stays fail-fast but clean.
                for future in futures:
                    future.cancel()
                pool.shutdown(wait=True, cancel_futures=True)
                raise
    finally:
        _WORKER_RUN_CELL = None
    assert all(item is not None for item in out)
    return out  # type: ignore[return-value]


class ParallelExperimentRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that fans suite-level runs out
    across ``jobs`` worker processes.

    Single-cell calls (:meth:`run_global`, :meth:`run_local`) stay
    in-process; :meth:`run_suite` and :meth:`run_matrix` decompose into
    cells and parallelize.  ``jobs=1`` (the default without
    ``REPRO_JOBS``) degrades to exactly the serial runner.

    With ``tracing`` enabled each worker records its cell's structured
    event stream (:mod:`repro.sim.tracing`) and the (picklable) events
    travel back attached to the cell's
    :class:`~repro.sim.experiment.ApplicationResult`; because results are
    folded in cell order, the merged streams are bit-identical to a
    serial traced run.
    """

    def __init__(
        self,
        suite: dict[str, ApplicationTrace],
        config: Optional[SimulationConfig] = None,
        *,
        jobs: Optional[int] = None,
        progress: Optional[ProgressHook] = None,
        tracing: bool = False,
        trace_capacity: Optional[int] = None,
        artifact_cache=None,
    ) -> None:
        super().__init__(
            suite,
            config,
            tracing=tracing,
            trace_capacity=trace_capacity,
            artifact_cache=artifact_cache,
        )
        self.jobs = resolve_jobs(jobs)
        self.progress = progress

    def with_config(
        self, config: SimulationConfig
    ) -> "ParallelExperimentRunner":
        """A parallel runner over the same suite under a new config,
        sharing filter memos when the cache configuration matches."""
        clone = ParallelExperimentRunner(
            self.suite,
            config,
            jobs=self.jobs,
            progress=self.progress,
            tracing=self.tracing,
            trace_capacity=self.trace_capacity,
            artifact_cache=self.artifact_cache,
        )
        if config.cache == self.config.cache:
            clone._filtered = self._filtered
        clone._fingerprints = self._fingerprints
        return clone

    def prewarm(self, applications: Optional[Sequence[str]] = None) -> None:
        """Run the memoized cache-filtering pass in the parent so forked
        workers inherit it copy-on-write instead of re-filtering.

        Streaming (store-backed) traces are skipped: memoizing them in
        the parent would defeat the store's memory bound, and workers
        read their chunks straight from the shared on-disk store (with
        an artifact cache attached, the filter results are shared
        through it instead).
        """
        for application in applications or self.applications:
            if getattr(self.suite[application], "streaming", False):
                continue
            self.filtered(application)

    def run_suite(
        self,
        predictor: str,
        *,
        applications: Optional[Sequence[str]] = None,
        mode: str = "global",
        multistate: bool = False,
        jobs: Optional[int] = None,
    ) -> dict[str, ApplicationResult]:
        """One predictor over many applications, one cell per app."""
        matrix = self.run_matrix(
            [predictor],
            mode=mode,
            applications=applications,
            multistate=multistate,
            jobs=jobs,
        )
        return {app: row[predictor] for app, row in matrix.items()}

    def run_matrix(
        self,
        predictors: Sequence[str],
        *,
        mode: str = "global",
        applications: Optional[Sequence[str]] = None,
        multistate: bool = False,
        jobs: Optional[int] = None,
    ) -> dict[str, dict[str, ApplicationResult]]:
        """``{application: {predictor: result}}`` over a worker pool;
        bit-identical to the serial :class:`ExperimentRunner` matrix.

        A matrix :func:`~repro.sim.fused.fused_eligible` admits (global
        mode, two or more predictors, untraced, not multistate)
        decomposes by application instead of (application × predictor):
        each cell decodes its trace once and evaluates every predictor
        against it (:mod:`repro.sim.fused`), with bit-identical results.
        """
        from repro.sim.fused import fused_eligible

        if mode not in ("global", "local"):
            raise ValueError(f"unknown mode {mode!r}")
        apps = list(applications) if applications else self.applications
        names = list(predictors)
        if fused_eligible(self, len(names), mode=mode, multistate=multistate):
            return self._run_matrix_fused(names, apps, jobs=jobs)
        cells = [
            ExperimentCell(
                index=len(names) * row + column,
                application=application,
                predictor=name,
            )
            for row, application in enumerate(apps)
            for column, name in enumerate(names)
        ]

        def run_cell(cell: ExperimentCell) -> ApplicationResult:
            if mode == "local":
                return self.run_local(cell.application, cell.predictor)
            return self.run_global(
                cell.application, cell.predictor, multistate=multistate
            )

        self.prewarm(apps)
        results = execute_cells(
            cells,
            run_cell,
            jobs=self.jobs if jobs is None else jobs,
            progress=self.progress,
        )
        matrix: dict[str, dict[str, ApplicationResult]] = {}
        for item in results:
            row = matrix.setdefault(item.cell.application, {})
            row[item.cell.predictor] = item.result
        return matrix

    def run_matrix_resilient(
        self,
        predictors: Sequence[str],
        *,
        mode: str = "global",
        applications: Optional[Sequence[str]] = None,
        multistate: bool = False,
        jobs: Optional[int] = None,
        policy=None,
        checkpoint=None,
    ):
        """A matrix run that survives crashed, hung, or failing cells.

        The resilient counterpart of :meth:`run_matrix`: cells are
        executed through :func:`repro.sim.resilience.run_cells` under
        ``policy`` (retries, per-cell timeouts, pool degradation) and
        the returned :class:`~repro.sim.resilience.MatrixReport` carries
        the partial matrix plus the failure/retry ledger.  With
        ``checkpoint`` (a :class:`~repro.sim.resilience.CellCheckpoint`
        or a path) completed cells are journalled and skipped on
        re-runs.  On the all-success path the matrix is bit-identical
        to :meth:`run_matrix`.

        On the fused path (see :meth:`run_matrix`) retries apply per
        fused cell, one per application and spanning every predictor,
        so a failed cell drops its whole application row from the
        matrix.  Either path journals one record per (application,
        predictor) under the same key, so a journal resumes under
        either path: adding a predictor re-runs only the new lanes.
        """
        from repro.sim.fused import fused_eligible
        from repro.sim.resilience import MatrixReport, cell_key, run_cells

        if mode not in ("global", "local"):
            raise ValueError(f"unknown mode {mode!r}")
        apps = list(applications) if applications else self.applications
        names = list(predictors)
        if fused_eligible(self, len(names), mode=mode, multistate=multistate):
            return self._run_matrix_fused(
                names,
                apps,
                jobs=jobs,
                policy=policy,
                checkpoint=checkpoint,
                resilient=True,
            )
        cells = [
            ExperimentCell(
                index=len(names) * row + column,
                application=application,
                predictor=name,
            )
            for row, application in enumerate(apps)
            for column, name in enumerate(names)
        ]

        def run_cell(cell: ExperimentCell) -> ApplicationResult:
            if mode == "local":
                return self.run_local(cell.application, cell.predictor)
            return self.run_global(
                cell.application, cell.predictor, multistate=multistate
            )

        self.prewarm(apps)
        keys = None
        if checkpoint is not None:
            keys = [
                cell_key(
                    self.fingerprint(cell.application),
                    cell.predictor,
                    self.config,
                    mode=mode,
                    multistate=multistate,
                )
                for cell in cells
            ]
        ledger = run_cells(
            cells,
            run_cell,
            jobs=self.jobs if jobs is None else jobs,
            policy=policy,
            progress=self.progress,
            checkpoint=checkpoint,
            cell_keys=keys,
            # Cells are keyed per predictor, so the predictor list is
            # free to differ between resumes; only the run *shape*
            # (mode, multistate) must match.
            provenance={"mode": mode, "multistate": bool(multistate)},
        )
        matrix: dict[str, dict[str, ApplicationResult]] = {}
        for item in ledger.results:
            row = matrix.setdefault(item.cell.application, {})
            row[item.cell.predictor] = item.result
        return MatrixReport(matrix=matrix, ledger=ledger)

    def _run_matrix_fused(
        self,
        names: list[str],
        apps: list[str],
        *,
        jobs: Optional[int],
        policy=None,
        checkpoint=None,
        resilient: bool = False,
    ):
        """Application-major matrix via the fused kernel (one cell per
        application, every predictor evaluated against one decoding)."""
        from repro.predictors.registry import make_spec
        from repro.sim.fused import run_fused_cells

        config = self.config

        def make_specs():
            return [make_spec(name, config) for name in names]

        if resilient and policy is None and checkpoint is None:
            from repro.sim.resilience import ResiliencePolicy

            policy = ResiliencePolicy()
        outcomes, ledger = run_fused_cells(
            self,
            apps,
            names,
            make_specs,
            jobs=self.jobs if jobs is None else jobs,
            progress=self.progress,
            policy=policy,
            checkpoint=checkpoint,
        )
        matrix: dict[str, dict[str, ApplicationResult]] = {}
        for application in apps:
            outcome = outcomes.get(application)
            if outcome is None:
                continue
            # Key rows by the *requested* names (classic rows are keyed
            # by cell.predictor, which is the registry name, not the
            # spec's display name).
            matrix[application] = dict(zip(names, outcome.results))
        if ledger is None:
            return matrix
        from repro.sim.resilience import MatrixReport

        return MatrixReport(matrix=matrix, ledger=ledger)

    def run_suite_resilient(
        self,
        predictor: str,
        *,
        applications: Optional[Sequence[str]] = None,
        mode: str = "global",
        multistate: bool = False,
        jobs: Optional[int] = None,
        policy=None,
        checkpoint=None,
    ):
        """One predictor over many applications, resiliently."""
        from repro.sim.resilience import SuiteReport

        report = self.run_matrix_resilient(
            [predictor],
            mode=mode,
            applications=applications,
            multistate=multistate,
            jobs=jobs,
            policy=policy,
            checkpoint=checkpoint,
        )
        results = {
            app: row[predictor]
            for app, row in report.matrix.items()
            if predictor in row
        }
        return SuiteReport(results=results, ledger=report.ledger)

    def run_fleet(
        self,
        devices,
        predictors=("PCAP",),
        *,
        tables: str = "sharded",
        jobs: Optional[int] = None,
        policy=None,
        checkpoint=None,
        use_cache: bool = True,
    ):
        """Simulate a device fleet (:func:`repro.sim.fleet.run_fleet`)
        under this runner's worker pool and progress hook."""
        from repro.sim.fleet import run_fleet

        return run_fleet(
            self,
            devices,
            predictors,
            tables=tables,
            jobs=self.jobs if jobs is None else jobs,
            progress=self.progress,
            resilience=policy,
            checkpoint=checkpoint,
            use_cache=use_cache,
        )

    def fleet_sweep(
        self,
        devices,
        values,
        *,
        predictor: str = "TP",
        make_spec_fn=None,
        tables: str = "sharded",
        jobs: Optional[int] = None,
        policy=None,
        checkpoint=None,
    ):
        """Sweep a predictor knob across a fleet
        (:func:`repro.sim.fleet.fleet_sweep`) under this runner's worker
        pool and progress hook."""
        from repro.sim.fleet import fleet_sweep

        return fleet_sweep(
            self,
            devices,
            values,
            predictor=predictor,
            make_spec_fn=make_spec_fn,
            tables=tables,
            jobs=self.jobs if jobs is None else jobs,
            progress=self.progress,
            resilience=policy,
            checkpoint=checkpoint,
        )
