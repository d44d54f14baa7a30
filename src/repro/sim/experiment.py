"""Experiment runner: (application × predictor) matrices with table reuse.

The paper's experiments replay each application's whole trace history —
dozens of executions — under one predictor, with the predictor's shared
state (PCAP table / LT tree) persisting across executions unless the
variant discards it.  :class:`ExperimentRunner` owns that loop, caches
the (deterministic, relatively expensive) cache-filtering step per
application, and aggregates per-execution results.

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
from typing import Optional, Sequence

from repro.cache.filter import FilterResult, filter_execution
from repro.disk.energy import EnergyBreakdown, sum_breakdowns
from repro.errors import SimulationError
from repro.predictors.registry import PredictorSpec, make_spec
from repro.config import SimulationConfig
from repro.sim.engine import evaluate_local_stream, run_global_execution
from repro.sim.metrics import PredictionStats
from repro.sim.tracing import SimTraceEvent, TraceRecorder, Tracer
from repro.traces.trace import ApplicationTrace


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
    """Runs predictors over a suite of application traces."""

    def __init__(
        self,
        suite: dict[str, ApplicationTrace],
        config: Optional[SimulationConfig] = None,
        *,
        tracing: bool = False,
        trace_capacity: Optional[int] = None,
        artifact_cache=None,
    ) -> None:
        self.suite = suite
        self.config = config or SimulationConfig()
        #: When set, every run records a structured event trace into a
        #: fresh :class:`TraceRecorder` (bounded by ``trace_capacity``)
        #: and attaches it to the :class:`ApplicationResult`.
        self.tracing = tracing
        self.trace_capacity = trace_capacity
        #: Optional :class:`~repro.sim.artifact_cache.ArtifactCache`
        #: persisting filter results on disk across processes and runs.
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

    def declare_fingerprints(self, fingerprints: dict[str, str]) -> None:
        """Pre-seed trace content fingerprints for artifact-cache keys.

        By default :meth:`filtered` fingerprints a trace by hashing all
        its events; callers that *know* the provenance of their suite
        (e.g. the deterministic generator — see
        :func:`repro.sim.artifact_cache.generated_suite_fingerprints`)
        can seed equivalent keys and skip the per-event hashing.
        """
        self._fingerprints.update(fingerprints)

    def fingerprint(self, application: str) -> str:
        """Content fingerprint of one application's trace (memoized).

        Pre-seeded fingerprints (:meth:`declare_fingerprints`) win; a
        trace that carries its own provenance digest (store-backed
        traces expose ``fingerprint``) is next; otherwise the trace's
        events are hashed once and remembered.  Artifact-cache keys and
        checkpoint cell keys (:func:`repro.sim.resilience.cell_key`) are
        both derived from this value.
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
        predictor: str | PredictorSpec,
        *,
        applications: Optional[Sequence[str]] = None,
        multistate: bool = False,
        jobs: Optional[int] = None,
        checkpoint=None,
        resilience=None,
    ) -> dict[str, ApplicationResult]:
        """One predictor's global run over many applications.

        ``jobs`` > 1 hands the (application) cells to the parallel
        execution layer (:mod:`repro.sim.parallel`); the merged mapping
        is identical to the serial one either way.

        ``checkpoint`` (a :class:`~repro.sim.resilience.CellCheckpoint`
        or a path) journals every completed cell to an append-only JSONL
        file and skips cells already recorded there, so an interrupted
        suite resumes instead of restarting; ``resilience`` (a
        :class:`~repro.sim.resilience.ResiliencePolicy`) adds per-cell
        retries and timeouts.  With either set, terminal cell failures
        raise :class:`~repro.errors.ExecutionError` *after* the
        completed cells were journalled — use
        :meth:`~repro.sim.parallel.ParallelExperimentRunner.run_suite_resilient`
        for a partial report instead of an exception.
        """
        apps = list(applications) if applications else self.applications
        resilient = checkpoint is not None or resilience is not None
        if resilient or (jobs is not None and jobs != 1):
            # Imported lazily: repro.sim.parallel imports this module.
            from repro.sim.parallel import ParallelExperimentRunner

            clone = ParallelExperimentRunner(
                self.suite,
                self.config,
                jobs=1 if jobs is None else jobs,
                tracing=self.tracing,
                trace_capacity=self.trace_capacity,
                artifact_cache=self.artifact_cache,
            )
            clone._filtered = self._filtered
            clone._fingerprints = self._fingerprints
            if isinstance(predictor, PredictorSpec):
                raise SimulationError(
                    "parallel or resilient run_suite needs a predictor "
                    "name (specs are stateful and cannot be shared "
                    "across workers)"
                )
            if resilient:
                from repro.sim.resilience import raise_on_failures

                report = clone.run_suite_resilient(
                    predictor,
                    applications=apps,
                    multistate=multistate,
                    policy=resilience,
                    checkpoint=checkpoint,
                )
                raise_on_failures(report.ledger, "suite run")
                return report.results
            return clone.run_suite(
                predictor, applications=apps, multistate=multistate
            )
        return {
            application: self.run_global(
                application, predictor, multistate=multistate
            )
            for application in apps
        }

    def run_matrix(
        self,
        predictors: Sequence[str],
        *,
        mode: str = "global",
        applications: Optional[Sequence[str]] = None,
    ) -> dict[str, dict[str, ApplicationResult]]:
        """``{application: {predictor: result}}`` for a whole figure.

        A matrix :func:`~repro.sim.fused.fused_eligible` admits (global
        mode, two or more predictors, untraced) evaluates every
        predictor in one streaming pass per application
        (:mod:`repro.sim.fused`) with bit-identical results; the rest
        run one :meth:`run_global` or :meth:`run_local` per cell.
        """
        # Imported lazily: repro.sim.fused imports this module.
        from repro.sim.fused import fused_eligible, run_fused_application

        if mode not in ("global", "local"):
            raise ValueError(f"unknown mode {mode!r}")
        apps = list(applications) if applications else self.applications
        names = list(predictors)
        if fused_eligible(self, len(names), mode=mode):
            return {
                application: dict(zip(names, run_fused_application(
                    self,
                    application,
                    [make_spec(name, self.config) for name in names],
                )))
                for application in apps
            }
        run = self.run_global if mode == "global" else self.run_local
        return {
            application: {name: run(application, name) for name in names}
            for application in apps
        }

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
