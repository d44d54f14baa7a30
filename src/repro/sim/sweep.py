"""Parameter sweep utilities.

The ablation benchmarks (and users exploring the design space) all
follow one pattern: vary one knob, run a predictor over the suite, and
collect aggregate accuracy/energy per point.  :func:`sweep` packages
that loop; the configuration is varied either by rebuilding the
:class:`~repro.config.SimulationConfig` (sharing the cache-filtering
work when possible) or by supplying a custom spec factory per point.

A sweep decomposes into independent (point × application) cells —
including one ``Base`` baseline cell per *distinct* (baseline-relevant
configuration × application) pair, computed once and reused by every
point whose disk/cache/service-time fields agree (predictor knobs like
the wait window never affect the always-on baseline) — and executes
them through the one cell executor,
:func:`repro.sim.resilience.run_cells`.  With ``jobs`` > 1 the cells
run on forked workers; the fold over per-cell results is in fixed cell
order either way, so parallel sweeps are bit-identical to serial ones.
A sweep under one configuration with two or more lanes runs one fused
cell per application instead (:func:`sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.config import SimulationConfig
from repro.predictors.registry import PredictorSpec
from repro.sim.experiment import ApplicationResult, ExperimentRunner
from repro.sim.metrics import PredictionStats
from repro.sim.resilience import ExperimentCell, ProgressHook

P = TypeVar("P")


def _baseline_key(config: SimulationConfig) -> tuple:
    """Memo key of a Base baseline cell under ``config``.

    The Base system is the always-on omniscient policy: its result
    depends only on the disk power model, the page-cache configuration
    (which shapes the filtered stream), and the service-time model —
    never on predictor knobs like ``wait_window`` or ``timeout``.
    Keying on exactly those fields lets sweeps over predictor knobs
    share one baseline cell per application instead of recomputing an
    identical baseline per point.
    """
    return (
        config.disk,
        config.cache,
        config.service_time,
        config.service_time_per_block,
    )


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """Aggregate outcome of one parameter value over the suite."""

    value: object
    hit_fraction: float
    miss_fraction: float
    hit_primary_fraction: float
    hit_backup_fraction: float
    energy: float
    savings: float
    shutdowns: int
    delayed_requests: int
    irritating_delays: int
    opportunities: int = 0
    disk_accesses: int = 0


def sweep(
    runner: ExperimentRunner,
    values: Iterable[P],
    *,
    make_config: Optional[Callable[[P], SimulationConfig]] = None,
    make_spec: Optional[
        Callable[[P, SimulationConfig], PredictorSpec]
    ] = None,
    predictor: str = "PCAP",
    applications: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
    policy=None,
    checkpoint=None,
) -> list[SweepPoint]:
    """Run one predictor across the suite for each parameter value.

    Exactly one of ``make_config`` (vary the simulation configuration;
    the predictor is resolved by name per point) or ``make_spec`` (vary
    the predictor itself under the runner's configuration) should be
    given; with neither, the sweep degenerates to a single-point run per
    value (useful for comparing predictor names by passing them as the
    values and ``make_spec=lambda name, cfg: registry.make_spec(...)``).

    ``jobs`` selects the worker count (``None`` defers to
    ``REPRO_JOBS``); ``progress`` receives one
    :class:`~repro.sim.resilience.CellProgress` event per finished cell.

    ``checkpoint`` (a :class:`~repro.sim.resilience.CellCheckpoint` or
    a path) journals every completed cell so a killed sweep can be
    rerun with the same checkpoint and re-execute only the unfinished
    cells; ``policy`` (a :class:`~repro.sim.resilience.ResiliencePolicy`,
    default one attempt per cell) adds per-cell retries and timeouts.
    Cells still failing terminally raise
    :class:`~repro.errors.ExecutionError` once the other cells have
    finished and been journalled.  Checkpoint cell keys embed the swept
    value (via the cell label) and the point's full configuration, so a
    changed sweep never resumes from stale entries.

    A sweep under the runner's configuration (no ``make_config``)
    whose lanes — one per point plus the shared Base baseline —
    :func:`~repro.sim.fused.fused_eligible` admits evaluates every lane
    in one streaming pass per application via :mod:`repro.sim.fused`
    instead of one cell per (point × application).  Results are
    bit-identical either way.  Sweeps that rebuild the configuration
    per point, record structured traces, or have a single lane keep the
    per-cell decomposition.
    """
    from repro.sim.fused import fused_eligible
    from repro.sim.resilience import (
        ResiliencePolicy,
        cell_key,
        raise_on_failures,
        run_cells,
    )

    if make_config is not None and make_spec is not None:
        raise ValueError("pass make_config or make_spec, not both")
    apps = list(applications) if applications else runner.applications
    point_values = list(values)
    # When the swept predictor *is* the baseline, every point doubles as
    # its own baseline (see _sweep_fused and the baseline cells below).
    sweeping_base = make_spec is None and predictor == "Base"
    lanes = len(point_values) + (0 if sweeping_base else 1)
    policy = policy or ResiliencePolicy(max_attempts=1)

    if make_config is None and fused_eligible(runner, lanes):
        return _sweep_fused(
            runner,
            point_values,
            make_spec=make_spec,
            predictor=predictor,
            apps=apps,
            jobs=jobs,
            progress=progress,
            policy=policy,
            checkpoint=checkpoint,
        )

    # Per-point runners; with_config shares the memoized cache-filtering
    # pass whenever the cache configuration is unchanged.
    point_runners: list[ExperimentRunner] = []
    for value in point_values:
        if make_config is not None:
            point_runners.append(runner.with_config(make_config(value)))
        else:
            point_runners.append(runner)

    # Decompose into cells.  Predictor cells first (point-major, then
    # application order — the fold order of the serial implementation);
    # then one baseline cell per distinct (configuration, application).
    plan: list[tuple[str, int, str]] = []
    cells: list[ExperimentCell] = []

    def add_cell(kind: str, point: int, application: str, label: str) -> None:
        plan.append((kind, point, application))
        cells.append(
            ExperimentCell(
                index=len(cells), application=application, predictor=label
            )
        )

    for point, value in enumerate(point_values):
        for application in apps:
            add_cell("run", point, application, f"{predictor}@{value!r}")

    #: (baseline-relevant config fields, application) → cell position of
    #: its baseline (see _baseline_key).
    baseline_cells: dict[tuple[tuple, str], int] = {}
    for point, point_runner in enumerate(point_runners):
        for position, application in enumerate(apps):
            key = (_baseline_key(point_runner.config), application)
            if key in baseline_cells:
                continue
            if sweeping_base:
                # The swept predictor is the baseline itself; its run
                # cell doubles as the baseline cell.
                baseline_cells[key] = point * len(apps) + position
            else:
                baseline_cells[key] = len(cells)
                add_cell("base", point, application, "Base")

    def run_cell(cell: ExperimentCell) -> ApplicationResult:
        kind, point, application = plan[cell.index]
        point_runner = point_runners[point]
        if kind == "base":
            return point_runner.run_global(application, "Base")
        if make_spec is not None:
            target: str | PredictorSpec = make_spec(
                point_values[point], point_runner.config
            )
        else:
            target = predictor
        return point_runner.run_global(application, target)

    # Warm the shared filter memo in the parent so forked workers (and
    # the in-process path) never re-filter applications per point;
    # prewarm leaves store-backed traces streaming.
    runner.prewarm(apps)
    keys = None
    if checkpoint is not None:
        keys = []
        for cell in cells:
            _, point, application = plan[cell.index]
            keys.append((application, cell_key(
                runner.fingerprint(application),
                cell.predictor,
                point_runners[point].config,
            )))
    ledger = run_cells(
        cells,
        run_cell,
        jobs=jobs,
        policy=policy,
        progress=progress,
        checkpoint=checkpoint,
        cell_keys=keys,
        provenance={"mode": "global", "multistate": False},
    )
    raise_on_failures(ledger, "sweep")
    results = ledger.results

    points: list[SweepPoint] = []
    for point, value in enumerate(point_values):
        stats = PredictionStats()
        energy = 0.0
        base_energy = 0.0
        shutdowns = 0
        delayed = 0
        irritating = 0
        accesses = 0
        for position, application in enumerate(apps):
            result = results[point * len(apps) + position].result
            stats.merge(result.stats)
            energy += result.energy
            shutdowns += result.shutdowns
            delayed += result.delayed_requests
            irritating += result.irritating_delays
            accesses += result.total_disk_accesses
            key = (_baseline_key(point_runners[point].config), application)
            base_energy += results[baseline_cells[key]].result.energy
        points.append(
            SweepPoint(
                value=value,
                hit_fraction=stats.hit_fraction,
                miss_fraction=stats.miss_fraction,
                hit_primary_fraction=stats.hit_primary_fraction,
                hit_backup_fraction=stats.hit_backup_fraction,
                energy=energy,
                savings=1.0 - energy / base_energy if base_energy else 0.0,
                shutdowns=shutdowns,
                delayed_requests=delayed,
                irritating_delays=irritating,
                opportunities=stats.opportunities,
                disk_accesses=accesses,
            )
        )
    return points


def _sweep_fused(
    runner: ExperimentRunner,
    point_values: list,
    *,
    make_spec,
    predictor: str,
    apps: list[str],
    jobs: Optional[int],
    progress: Optional[ProgressHook],
    policy,
    checkpoint,
) -> list[SweepPoint]:
    """Application-major sweep through the fused kernel.

    One fused cell per application evaluates every point's spec (plus
    the shared Base baseline) against one decoding of the trace.  The
    per-point fold below is the same accumulation, in the same
    (point-major, application-order) sequence, as the classic path —
    which is what keeps fused sweeps bit-identical.
    """
    from repro.predictors.registry import make_spec as registry_make_spec
    from repro.sim.fused import run_fused_cells
    from repro.sim.resilience import raise_on_failures

    config = runner.config
    labels = [f"{predictor}@{value!r}" for value in point_values]
    # When the swept predictor *is* the baseline, every point doubles as
    # its own baseline (mirroring the classic cell-sharing rule).
    sweeping_base = make_spec is None and predictor == "Base"
    base_lane: Optional[int] = None
    if not sweeping_base:
        base_lane = len(labels)
        labels.append("Base")

    def make_specs() -> list[PredictorSpec]:
        specs = []
        for value in point_values:
            if make_spec is not None:
                specs.append(make_spec(value, config))
            else:
                specs.append(registry_make_spec(predictor, config))
        if not sweeping_base:
            specs.append(registry_make_spec("Base", config))
        return specs

    outcomes, ledger = run_fused_cells(
        runner,
        apps,
        labels,
        make_specs,
        jobs=jobs,
        progress=progress,
        policy=policy,
        checkpoint=checkpoint,
        # A make_spec callable is opaque — its cell labels do not pin
        # down the predictor it builds, so persistent artifacts would
        # risk stale hits across code changes.  Registry names do.
        use_cache=make_spec is None,
    )
    raise_on_failures(ledger, "sweep")

    points: list[SweepPoint] = []
    for point, value in enumerate(point_values):
        stats = PredictionStats()
        energy = 0.0
        base_energy = 0.0
        shutdowns = 0
        delayed = 0
        irritating = 0
        accesses = 0
        for application in apps:
            lanes = outcomes[application].results
            result = lanes[point]
            stats.merge(result.stats)
            energy += result.energy
            shutdowns += result.shutdowns
            delayed += result.delayed_requests
            irritating += result.irritating_delays
            accesses += result.total_disk_accesses
            base = lanes[0] if base_lane is None else lanes[base_lane]
            base_energy += base.energy
        points.append(
            SweepPoint(
                value=value,
                hit_fraction=stats.hit_fraction,
                miss_fraction=stats.miss_fraction,
                hit_primary_fraction=stats.hit_primary_fraction,
                hit_backup_fraction=stats.hit_backup_fraction,
                energy=energy,
                savings=1.0 - energy / base_energy if base_energy else 0.0,
                shutdowns=shutdowns,
                delayed_requests=delayed,
                irritating_delays=irritating,
                opportunities=stats.opportunities,
                disk_accesses=accesses,
            )
        )
    return points


def render_sweep(points: Sequence[SweepPoint], title: str) -> str:
    """A compact text table of sweep results."""
    lines = [
        title,
        f"  {'value':>10s} {'hit':>7s} {'miss':>7s} {'savings':>8s} "
        f"{'shutdowns':>9s} {'irritating':>10s}",
    ]
    for point in points:
        lines.append(
            f"  {point.value!s:>10s} {point.hit_fraction:7.1%} "
            f"{point.miss_fraction:7.1%} {point.savings:8.1%} "
            f"{point.shutdowns:9d} {point.irritating_delays:10d}"
        )
    return "\n".join(lines)
