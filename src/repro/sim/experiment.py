"""Experiment runner: (application × predictor) matrices with table reuse.

The paper's experiments replay each application's whole trace history —
dozens of executions — under one predictor, with the predictor's shared
state (PCAP table / LT tree) persisting across executions unless the
variant discards it.  :class:`ExperimentRunner` owns that loop, caches
the (deterministic, relatively expensive) cache-filtering step per
application, and aggregates per-execution results.

It is also the one runner of the batch entry points.  A matrix
(:meth:`ExperimentRunner.run_matrix_resilient`) is decomposed into
cells — one fused cell per application when
:func:`~repro.sim.fused.fused_eligible` admits it, one cell per
(application × predictor) otherwise — and executed by the one cell
executor, :func:`repro.sim.resilience.run_cells`, on ``jobs`` workers.
:meth:`~ExperimentRunner.run_matrix` is that call with one attempt per
cell that raises on any failure, and :meth:`~ExperimentRunner.run_suite`
is one row of it.  Results fold in cell order, so they are
bit-identical at any worker count.

Suites may mix in-memory :class:`~repro.traces.trace.ApplicationTrace`
objects and store-backed :class:`~repro.traces.store.StoreBackedTrace`
objects (``streaming = True``).  For streaming traces the runner filters
and simulates one execution at a time (:meth:`ExperimentRunner.iter_filtered`)
instead of memoizing the whole application, so peak memory stays bounded
by one execution plus one store chunk; the produced results are
bit-identical to the in-memory path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cache.filter import FilterResult, filter_execution
from repro.disk.energy import EnergyBreakdown, sum_breakdowns
from repro.errors import SimulationError
from repro.predictors.registry import PredictorSpec, make_spec
from repro.config import SimulationConfig, resolve_jobs
from repro.sim.engine import evaluate_local_stream, run_global_execution
from repro.sim.metrics import PredictionStats
from repro.sim.tracing import SimTraceEvent, TraceRecorder, Tracer
from repro.traces.trace import ApplicationTrace

if TYPE_CHECKING:  # pragma: no cover - resilience imports this module
    from repro.sim.resilience import ProgressHook


@dataclass(slots=True)
class ApplicationResult:
    """Aggregate of one application's trace history under one predictor."""

    application: str
    predictor: str
    stats: PredictionStats
    ledger: EnergyBreakdown
    executions: int
    total_disk_accesses: int
    shutdowns: int
    #: Final size of the shared prediction structure, if the predictor
    #: has one (Table 3).
    table_size: Optional[int]
    #: Spin-up latency the policy inflicted (see ExecutionRunResult).
    delayed_requests: int = 0
    delay_seconds: float = 0.0
    irritating_delays: int = 0
    #: Structured-tracing output, populated only when the run was traced:
    #: per-kind event counters over the whole run, and the retained event
    #: stream (ring-buffer bounded; picklable, so parallel workers ship
    #: it back with the cell and the cell-ordered merge keeps streams
    #: identical to a serial run).
    trace_summary: Optional[dict[str, int]] = None
    trace_events: tuple[SimTraceEvent, ...] = ()

    @property
    def energy(self) -> float:
        """Total energy of the run in joules."""
        return self.ledger.total


class ExperimentRunner:
    """Runs predictors over a suite of application traces.

    Single-cell calls (:meth:`run_global`, :meth:`run_local`) run
    in-process; the matrix entry points fan their cells out across
    ``jobs`` workers (default: ``REPRO_JOBS``, or 1) and report each
    finished cell to ``progress``.  With ``tracing`` enabled each cell
    records its structured event stream (:mod:`repro.sim.tracing`) and
    the (picklable) events travel back attached to the cell's
    :class:`ApplicationResult`; because results are folded in cell
    order, the merged streams are bit-identical at any worker count.
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
        self.suite = suite
        self.config = config or SimulationConfig()
        #: Worker count of the matrix entry points (per-call ``jobs=``
        #: overrides it).
        self.jobs = resolve_jobs(jobs)
        #: Hook receiving one :class:`~repro.sim.resilience.CellProgress`
        #: event per finished or failed cell attempt.
        self.progress = progress
        #: When set, every run records a structured event trace into a
        #: fresh :class:`TraceRecorder` (bounded by ``trace_capacity``)
        #: and attaches it to the :class:`ApplicationResult`.
        self.tracing = tracing
        self.trace_capacity = trace_capacity
        #: Optional :class:`~repro.sim.artifact_cache.ArtifactCache`
        #: persisting filter results and untraced cell outcomes on disk
        #: across processes and runs.
        self.artifact_cache = artifact_cache
        self._filtered: dict[str, list[FilterResult]] = {}
        #: application → content fingerprint, shared with clones (it
        #: depends only on the suite's trace events, never the config).
        self._fingerprints: dict[str, str] = {}

    @property
    def applications(self) -> list[str]:
        """Application names of the suite, in suite order."""
        return list(self.suite)

    def with_config(self, config: SimulationConfig) -> "ExperimentRunner":
        """A runner over the same suite under a different configuration.

        When the cache configuration is unchanged the (expensive)
        filtering results are shared; parameter sweeps over predictor
        knobs (wait window, timeout, history length) then cost no
        re-filtering.
        """
        clone = ExperimentRunner(
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

    def _make_tracer(
        self, tracer: Optional[Tracer]
    ) -> tuple[Optional[Tracer], Optional[TraceRecorder]]:
        """Resolve the effective tracer for one run.

        An explicit ``tracer`` wins; otherwise the runner-level
        ``tracing`` flag creates a per-run recorder.  Returns the tracer
        to emit into and the recorder whose output should be attached to
        the result (``None`` when the sink is caller-owned and opaque).
        """
        if tracer is not None:
            recorder = tracer if isinstance(tracer, TraceRecorder) else None
            return tracer, recorder
        if self.tracing:
            recorder = TraceRecorder(capacity=self.trace_capacity)
            return recorder, recorder
        return None, None

    def fingerprint(self, application: str) -> str:
        """Content fingerprint of one application's trace (memoized).

        A trace that carries its own provenance digest (store-backed
        traces expose their manifest ``fingerprint``) supplies it;
        otherwise the trace's events are hashed once and remembered.
        Both give the same value for the same content.  Artifact-cache
        keys and checkpoint cell keys
        (:func:`repro.sim.resilience.cell_key`) are both derived from
        this value.
        """
        fingerprint = self._fingerprints.get(application)
        if fingerprint is None:
            trace = self._trace(application)
            fingerprint = getattr(trace, "fingerprint", None)
            if fingerprint is None:
                from repro.sim.artifact_cache import trace_fingerprint

                fingerprint = trace_fingerprint(trace)
            self._fingerprints[application] = fingerprint
        return fingerprint

    def _filter_one(self, execution, application: str) -> FilterResult:
        """Filter one execution, honoring the attached artifact cache."""
        cache = self.artifact_cache
        if cache is None:
            return filter_execution(execution, self.config.cache)
        from repro.sim.artifact_cache import filter_key

        key = filter_key(
            self.fingerprint(application),
            execution.execution_index,
            self.config.cache,
        )
        hit, value = cache.get(key)
        if not hit:
            value = filter_execution(execution, self.config.cache)
            cache.put(key, value)
        return value

    def filtered(self, application: str) -> list[FilterResult]:
        """Cache-filtered executions of one application (memoized).

        With an artifact cache attached, each execution's filter result
        is additionally persisted on disk, keyed by the trace content
        fingerprint and the cache configuration — cold runs in a new
        process then deserialize instead of re-filtering.  Cached
        results are the pickles of exactly what ``filter_execution``
        builds, so downstream simulation is bit-identical either way.

        For streaming (store-backed) traces, prefer :meth:`iter_filtered`,
        which avoids holding every execution's result at once.
        """
        memo = self._filtered.get(application)
        if memo is not None:
            return memo
        trace = self._trace(application)
        results = [
            self._filter_one(execution, application) for execution in trace
        ]
        self._filtered[application] = results
        return results

    def iter_filtered(self, application: str):
        """Yield ``(execution, filter result)`` pairs one at a time.

        The memory-bounded front end of every run loop: for in-memory
        traces this walks the :meth:`filtered` memo (building it on first
        use, exactly as before); for streaming traces it filters each
        execution on the fly and *does not* retain the results, so peak
        memory is one execution plus one filter result regardless of
        trace size.
        """
        trace = self._trace(application)
        memo = self._filtered.get(application)
        if memo is None and getattr(trace, "streaming", False):
            for execution in trace:
                yield execution, self._filter_one(execution, application)
            return
        yield from zip(trace, self.filtered(application))

    def prewarm(self, applications: Optional[Sequence[str]] = None) -> None:
        """Run the memoized cache-filtering pass before cells execute,
        so forked workers inherit it copy-on-write instead of
        re-filtering.

        Streaming (store-backed) traces are skipped: memoizing them
        would defeat the store's memory bound, and workers read their
        chunks straight from the shared on-disk store (with an artifact
        cache attached, the filter results are shared through it
        instead).

        NumPy is imported here in any case.  No module imports it at
        load time (a warm run that computes nothing never needs it), so
        a forked worker would otherwise import it once per cell attempt,
        which costs more than the warm run saves (DESIGN §10,
        "Start-up").
        """
        import numpy  # noqa: F401  (inherited by forked workers)

        for application in applications or self.applications:
            if not getattr(self._trace(application), "streaming", False):
                self.filtered(application)

    def run_global(
        self,
        application: str,
        predictor: str | PredictorSpec,
        *,
        multistate: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> ApplicationResult:
        """Whole-trace global run (Figures 7–10, Table 3).

        ``multistate`` enables the §7 low-power-idle extension.
        ``tracer`` (or the runner-level ``tracing`` flag) records the
        structured decision timeline of the whole run.
        """
        trace = self._trace(application)
        spec = self._spec(predictor)
        tracer, recorder = self._make_tracer(tracer)
        stats = PredictionStats()
        ledgers: list[EnergyBreakdown] = []
        accesses = 0
        shutdowns = 0
        peak_table = 0
        delayed = 0
        delay_seconds = 0.0
        irritating = 0
        for execution, filtered in self.iter_filtered(application):
            result = run_global_execution(
                execution, filtered, spec, self.config,
                multistate=multistate, tracer=tracer,
            )
            stats.merge(result.stats)
            ledgers.append(result.ledger)
            accesses += result.disk_accesses
            shutdowns += result.shutdowns
            delayed += result.delayed_requests
            delay_seconds += result.delay_seconds
            irritating += result.irritating_delays
            if spec.table_size is not None:
                peak_table = max(peak_table, spec.table_size)
            spec.on_execution_end()
        return ApplicationResult(
            application=application,
            predictor=spec.name,
            stats=stats,
            ledger=sum_breakdowns(ledgers),
            executions=len(trace),
            total_disk_accesses=accesses,
            shutdowns=shutdowns,
            table_size=peak_table if spec.table_size is not None else None,
            delayed_requests=delayed,
            delay_seconds=delay_seconds,
            irritating_delays=irritating,
            trace_summary=recorder.counts() if recorder is not None else None,
            trace_events=recorder.events if recorder is not None else (),
        )

    def run_local(
        self,
        application: str,
        predictor: str | PredictorSpec,
        *,
        tracer: Optional[Tracer] = None,
    ) -> ApplicationResult:
        """Per-process local evaluation (Figure 6): every process's own
        access stream is scored independently; counters are summed over
        processes and normalized to the application's local idle periods."""
        trace = self._trace(application)
        spec = self._spec(predictor)
        if spec.is_omniscient:
            raise SimulationError(
                f"{spec.name} is an omniscient policy; local evaluation "
                "applies to online predictors only"
            )
        assert spec.local_factory is not None
        tracer, recorder = self._make_tracer(tracer)
        stats = PredictionStats()
        accesses = 0
        peak_table = 0
        for execution, filtered in self.iter_filtered(application):
            lifetimes = execution.lifetimes()
            per_process = filtered.per_process()
            for pid, (start, end) in sorted(lifetimes.items()):
                stream = per_process.get(pid, [])
                if not stream:
                    # A process that never touches the disk encounters no
                    # disk idle periods (its whole lifetime would
                    # otherwise count as one giant idle period).
                    continue
                predictor_instance = spec.local_factory(pid)
                stats.merge(
                    evaluate_local_stream(
                        stream,
                        predictor_instance,
                        self.config,
                        start_time=start,
                        end_time=end,
                        tracer=tracer,
                    )
                )
                accesses += len(stream)
            if spec.table_size is not None:
                peak_table = max(peak_table, spec.table_size)
            spec.on_execution_end()
        return ApplicationResult(
            application=application,
            predictor=spec.name,
            stats=stats,
            ledger=EnergyBreakdown(),
            executions=len(trace),
            total_disk_accesses=accesses,
            shutdowns=stats.shutdowns,
            table_size=peak_table if spec.table_size is not None else None,
            trace_summary=recorder.counts() if recorder is not None else None,
            trace_events=recorder.events if recorder is not None else (),
        )

    def run_suite(
        self,
        predictor: str,
        *,
        applications: Optional[Sequence[str]] = None,
        multistate: bool = False,
        jobs: Optional[int] = None,
        checkpoint=None,
        policy=None,
    ) -> dict[str, ApplicationResult]:
        """One predictor's global run over many applications: one row of
        a :meth:`run_matrix_resilient` matrix, raising like
        :meth:`run_matrix`.

        ``checkpoint`` (a :class:`~repro.sim.resilience.CellCheckpoint`
        or a path) journals every completed cell to an append-only JSONL
        file and skips cells already recorded there, so an interrupted
        suite resumes instead of restarting; ``policy`` (a
        :class:`~repro.sim.resilience.ResiliencePolicy`, default one
        attempt per cell) adds per-cell retries and timeouts.  Terminal
        cell failures raise :class:`~repro.errors.ExecutionError` once
        the other cells have finished and been journalled — use
        :meth:`run_matrix_resilient` for a partial report instead of an
        exception.
        """
        from repro.sim.resilience import ResiliencePolicy, raise_on_failures

        report = self.run_matrix_resilient(
            [predictor],
            applications=applications,
            multistate=multistate,
            jobs=jobs,
            policy=policy or ResiliencePolicy(max_attempts=1),
            checkpoint=checkpoint,
        )
        raise_on_failures(report.ledger, "suite run")
        return {app: row[predictor] for app, row in report.matrix.items()}

    def run_matrix(
        self,
        predictors: Sequence[str],
        *,
        mode: str = "global",
        applications: Optional[Sequence[str]] = None,
        multistate: bool = False,
        jobs: Optional[int] = None,
    ) -> dict[str, dict[str, ApplicationResult]]:
        """``{application: {predictor: result}}`` for a whole figure.

        :meth:`run_matrix_resilient` with one attempt per cell: a failed
        cell lets the other cells finish, then the run raises one
        :class:`~repro.errors.ExecutionError` naming every failed cell
        with its error type and message.
        """
        from repro.sim.resilience import ResiliencePolicy, raise_on_failures

        report = self.run_matrix_resilient(
            predictors,
            mode=mode,
            applications=applications,
            multistate=multistate,
            jobs=jobs,
            policy=ResiliencePolicy(max_attempts=1),
        )
        raise_on_failures(report.ledger, "matrix run")
        return report.matrix

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

        Cells are executed through :func:`repro.sim.resilience.run_cells`
        under ``policy`` (retries, per-cell timeouts, pool degradation;
        default :class:`~repro.sim.resilience.ResiliencePolicy`) and the
        returned :class:`~repro.sim.resilience.MatrixReport` carries the
        partial matrix plus the failure/retry ledger.  With
        ``checkpoint`` (a :class:`~repro.sim.resilience.CellCheckpoint`
        or a path) completed cells are journalled and skipped on
        re-runs.

        A matrix :func:`~repro.sim.fused.fused_eligible` admits (global
        mode, two or more predictors, untraced, not multistate) runs one
        fused cell per application, which decodes the trace once and
        evaluates every predictor against it (:mod:`repro.sim.fused`);
        the rest run one :meth:`run_global` or :meth:`run_local` per
        (application × predictor) cell.  Results are bit-identical
        either way.  Retries apply per cell, so a failed fused cell
        drops its whole application row.  Both decompositions journal
        one record per (application, predictor) under the same key, so
        a journal resumes under either: adding a predictor re-runs only
        the new lanes.

        With an artifact cache attached and tracing off, every
        (application, predictor) result is also put in the cache under
        its journal key (:func:`~repro.sim.resilience.cell_key`), on
        either path, and stored results are served before any cell runs
        or a worker starts: a warm matrix filters and forks nothing,
        and a matrix reuses the lanes any other command stored.
        """
        # Imported lazily: both modules import this one.
        from repro.sim.fused import fused_eligible, run_fused_cells
        from repro.sim.resilience import (
            ExperimentCell,
            MatrixReport,
            cell_key,
            run_cells,
        )

        if mode not in ("global", "local"):
            raise ValueError(f"unknown mode {mode!r}")
        apps = list(applications) if applications else self.applications
        names = list(predictors)
        jobs = self.jobs if jobs is None else jobs
        matrix: dict[str, dict[str, ApplicationResult]] = {}
        if fused_eligible(self, len(names), mode=mode, multistate=multistate):
            config = self.config
            outcomes, ledger = run_fused_cells(
                self,
                apps,
                names,
                lambda: [make_spec(name, config) for name in names],
                jobs=jobs,
                progress=self.progress,
                policy=policy,
                checkpoint=checkpoint,
            )
            for application in apps:
                if application in outcomes:
                    # Rows are keyed by the requested registry names,
                    # not the specs' display names.
                    matrix[application] = dict(
                        zip(names, outcomes[application].results)
                    )
            return MatrixReport(matrix=matrix, ledger=ledger)

        cells = [
            ExperimentCell(
                index=len(names) * row + column,
                application=application,
                predictor=name,
            )
            for row, application in enumerate(apps)
            for column, name in enumerate(names)
        ]

        # A traced result carries its event stream, which a cached one
        # would not replay, so only untraced cells use the cache.
        cache = None if self.tracing else self.artifact_cache
        keys = None
        if checkpoint is not None or cache is not None:
            keys = [
                (cell.application, cell_key(
                    self.fingerprint(cell.application),
                    cell.predictor,
                    self.config,
                    mode=mode,
                    multistate=multistate,
                ))
                for cell in cells
            ]

        def run_cell(cell: ExperimentCell) -> ApplicationResult:
            if mode == "local":
                return self.run_local(cell.application, cell.predictor)
            return self.run_global(
                cell.application, cell.predictor, multistate=multistate
            )

        ledger = run_cells(
            cells,
            run_cell,
            jobs=jobs,
            policy=policy,
            progress=self.progress,
            checkpoint=checkpoint,
            cell_keys=keys,
            # Cells are keyed per predictor, so the predictor list is
            # free to differ between resumes; only the run *shape*
            # (mode, multistate) must match.
            provenance={"mode": mode, "multistate": bool(multistate)},
            cache=cache,
            # Only applications with cells left to run are filtered.
            prepare=lambda pending: self.prewarm(
                [cell.application for cell in pending]
            ),
        )
        for item in ledger.results:
            row = matrix.setdefault(item.cell.application, {})
            row[item.cell.predictor] = item.result
        return MatrixReport(matrix=matrix, ledger=ledger)

    def _trace(self, application: str) -> ApplicationTrace:
        try:
            return self.suite[application]
        except KeyError:
            raise SimulationError(
                f"unknown application {application!r}; suite has "
                f"{sorted(self.suite)}"
            ) from None

    def _spec(self, predictor: str | PredictorSpec) -> PredictorSpec:
        if isinstance(predictor, PredictorSpec):
            return predictor
        return make_spec(predictor, self.config)
