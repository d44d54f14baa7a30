"""Fleet-scale multi-device simulation (device-batched columnar engine).

The paper evaluates one disk per run; the production shape this package
grows toward is a *fleet* — thousands to millions of independent devices,
each replaying an application's trace history under a power-management
policy, aggregated into fleet-level energy and latency figures.  Running
one :class:`~repro.sim.experiment.ExperimentRunner` cell per device
would cost O(devices) full replays and O(devices) Python object graphs;
this module keeps both bounded:

* **Device-batched state.**  Per-device simulation state (energy
  buckets, idle clock, prediction and latency counters) lives in
  columnar NumPy arrays —
  :class:`~repro.sim.columnar.DeviceStateColumns`, one row per device —
  so advancing the whole population by one replayed trace history is a
  handful of vectorized scatter-adds, and fleet reductions (total
  energy, per-percentile slowdown) are single array operations.

* **Replay deduplication.**  Devices are keyed by application identity.
  Every device of one application replays the *same* trace under the
  same deterministic engine, so the fused kernel
  (:mod:`repro.sim.fused`) replays each application once per variant
  lane and the result is scattered across that application's device
  rows.  One process therefore advances an entire device population per
  event batch — the per-event work is O(unique applications), not
  O(devices).

* **Bounded memory.**  Applications stream through
  :meth:`~repro.sim.experiment.ExperimentRunner.iter_filtered`, so
  store-backed suites (:mod:`repro.traces.store`) decode one chunk at a
  time; fleet memory is O(devices) accumulator rows plus one execution
  in flight, at any fleet size.

* **Prediction-table scope.**  ``tables="sharded"`` (the default) gives
  each application shard its own prediction tables — device results are
  independent, and an N-device fleet of identical traces is
  *bit-identical* to N standalone single-device runs (the fleet
  equivalence gate).  ``tables="shared"`` evolves one fleet-wide table
  set across applications, replayed sequentially in first-seen device
  order — the cross-workload table-reuse shape of the paper's §6.4
  scaled to a population; results then intentionally differ from
  isolated runs.

Execution rides the existing layers: sharded fleets fan one fused cell
per application through :func:`repro.sim.fused.run_fused_cells` (worker
pools, artifact cache, retries, checkpoints all apply); shared fleets
run as a single sequential cell that records one result per
(application, lane) under keys built from the fleet fingerprint.  Both
run on the one cell executor, :func:`repro.sim.resilience.run_cells`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.config import SimulationConfig
from repro.errors import ConfigurationError, SimulationError
from repro.predictors.registry import PredictorSpec, make_spec
from repro.sim.columnar import DeviceStateColumns
from repro.sim.experiment import ApplicationResult, ExperimentRunner
from repro.sim.fused import (
    FusedCellOutcome,
    fused_supported,
    run_fused_application,
    run_fused_cells,
)
from repro.sim.metrics import PredictionStats
from repro.sim.resilience import ExperimentCell, ProgressHook

#: Prediction-table scopes accepted by :func:`run_fleet`.
TABLE_MODES = ("sharded", "shared")

#: Slowdown percentiles reported by default (per-device mean inflicted
#: delay per access, in milliseconds in the rendered table).
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0)


@dataclass(frozen=True, slots=True)
class DeviceSpec:
    """One fleet member: a device identity bound to an application."""

    device_id: str
    application: str


def replicate_devices(
    applications: Sequence[str], count: int, *, prefix: str = "dev"
) -> list[DeviceSpec]:
    """A ``count``-device population, round-robin over ``applications``.

    The standard fleet shape for experiments: device ``i`` runs
    application ``applications[i % len(applications)]`` under the id
    ``{prefix}-{i:0{width}}``.
    """
    apps = list(applications)
    if not apps:
        raise ConfigurationError("a fleet needs at least one application")
    if count < 0:
        raise ConfigurationError("device count must be non-negative")
    width = max(4, len(str(max(count - 1, 0))))
    return [
        DeviceSpec(
            device_id=f"{prefix}-{index:0{width}d}",
            application=apps[index % len(apps)],
        )
        for index in range(count)
    ]


@dataclass(slots=True)
class FleetLaneResult:
    """One predictor lane's outcome over the whole device population."""

    #: The requested predictor name (registry name or sweep label).
    predictor: str
    #: Per-device identity and application, row-aligned with ``columns``.
    device_ids: list[str]
    applications: list[str]
    #: The device-batched accumulator columns (one row per device).
    columns: DeviceStateColumns
    #: Per-application replay outcome (display name, table size) the
    #: device rows were scattered from.
    per_application: dict[str, ApplicationResult]

    @property
    def devices(self) -> int:
        """Fleet size."""
        return len(self.device_ids)

    @property
    def total_energy(self) -> float:
        """Fleet-total energy in joules."""
        return self.columns.aggregate_ledger().total

    def aggregate_stats(self) -> PredictionStats:
        """Fleet-total prediction counters."""
        return self.columns.aggregate_stats()

    def device_result(self, device: int) -> ApplicationResult:
        """One device's breakdown, reconstructed from its column row.

        Bit-identical to an independent single-device
        :meth:`~repro.sim.experiment.ExperimentRunner.run_global` of the
        device's application in ``tables="sharded"`` mode — the fleet
        equivalence contract.
        """
        application = self.applications[device]
        replay = self.per_application[application]
        columns = self.columns
        return ApplicationResult(
            application=application,
            predictor=replay.predictor,
            stats=columns.stats_of(device),
            ledger=columns.ledger_of(device),
            executions=int(columns.executions[device]),
            total_disk_accesses=int(columns.disk_accesses[device]),
            shutdowns=int(columns.shutdowns[device]),
            table_size=replay.table_size,
            delayed_requests=int(columns.delayed_requests[device]),
            delay_seconds=float(columns.delay_seconds[device]),
            irritating_delays=int(columns.irritating_delays[device]),
        )

    def slowdown_percentiles(
        self, percentiles: Sequence[float] = DEFAULT_PERCENTILES
    ) -> dict[float, float]:
        """Per-device slowdown distribution over the fleet.

        The slowdown metric is each device's mean inflicted spin-up
        delay per disk access
        (:meth:`~repro.sim.columnar.DeviceStateColumns.delay_per_access`);
        the return maps each requested percentile to its value in
        seconds.
        """
        values = self.columns.delay_per_access()
        if not len(values):
            return {float(p): 0.0 for p in percentiles}
        points = np.percentile(values, list(percentiles))
        return {
            float(p): float(v) for p, v in zip(percentiles, points)
        }


@dataclass(slots=True)
class FleetResult:
    """A full fleet evaluation: one lane per requested predictor."""

    devices: list[DeviceSpec]
    predictors: list[str]
    tables: str
    #: Fleet provenance digest (ordered device fingerprints × variant
    #: set × configuration) — the artifact/checkpoint identity of this
    #: run (:func:`repro.sim.artifact_cache.fleet_fingerprint`).
    fingerprint: str
    lanes: dict[str, FleetLaneResult] = field(default_factory=dict)
    #: The cell executor's :class:`~repro.sim.resilience.RunLedger`.
    ledger: object = None

    def lane(self, predictor: str) -> FleetLaneResult:
        """The lane of one requested predictor name."""
        return self.lanes[predictor]

    def render(
        self, percentiles: Sequence[float] = DEFAULT_PERCENTILES
    ) -> str:
        """A deterministic text table of fleet aggregates per lane."""
        header = (
            f"  {'predictor':<12s} {'energy':>14s} {'mean-delay':>11s} "
            + " ".join(f"p{p:g}".rjust(9) for p in percentiles)
            + f" {'shutdowns':>10s} {'delayed':>8s}"
        )
        lines = [header]
        base = self.lanes.get("Base")
        for name in self.predictors:
            lane = self.lanes[name]
            columns = lane.columns
            total_delay = float(columns.delay_seconds.sum())
            total_accesses = int(columns.disk_accesses.sum())
            mean_delay = (
                total_delay / total_accesses if total_accesses else 0.0
            )
            spread = lane.slowdown_percentiles(percentiles)
            row = (
                f"  {name:<12s} {lane.total_energy:>12.1f} J "
                f"{mean_delay * 1e3:>8.3f} ms "
                + " ".join(
                    f"{spread[float(p)] * 1e3:>6.3f} ms" for p in percentiles
                )
                + f" {int(columns.shutdowns.sum()):>10d}"
                f" {int(columns.delayed_requests.sum()):>8d}"
            )
            if base is not None and name != "Base":
                base_energy = base.total_energy
                if base_energy:
                    savings = 1.0 - lane.total_energy / base_energy
                    row += f"  ({savings:+.1%} vs Base)"
            lines.append(row)
        return "\n".join(lines)


def _device_index_map(
    devices: Sequence[DeviceSpec],
) -> tuple[list[str], dict[str, np.ndarray]]:
    """Unique applications in first-seen order, and each application's
    device-row positions as an index array."""
    order: list[str] = []
    positions: dict[str, list[int]] = {}
    for row, device in enumerate(devices):
        bucket = positions.get(device.application)
        if bucket is None:
            order.append(device.application)
            bucket = positions[device.application] = []
        bucket.append(row)
    return order, {
        app: np.asarray(rows, dtype=np.intp)
        for app, rows in positions.items()
    }


def _normalize_devices(
    runner: ExperimentRunner,
    devices: Union[int, Sequence[DeviceSpec]],
) -> list[DeviceSpec]:
    if isinstance(devices, int):
        population = replicate_devices(runner.applications, devices)
    else:
        population = list(devices)
    seen: set[str] = set()
    for device in population:
        if device.application in seen:
            continue
        seen.add(device.application)
        if device.application not in runner.suite:
            raise ConfigurationError(
                f"fleet device {device.device_id!r} maps to "
                f"{device.application!r}, which is not in the runner's "
                f"suite {sorted(runner.suite)}"
            )
    return population


def _shared_outcomes(
    runner: ExperimentRunner,
    apps: list[str],
    labels: Sequence[str],
    make_specs: Callable[[], list[PredictorSpec]],
    fingerprint: str,
    *,
    jobs: Optional[int],
    progress: Optional[ProgressHook],
    policy,
    checkpoint,
    use_cache: bool = True,
):
    """Evaluate a shared-table fleet: one sequential cell, one spec set.

    The spec objects persist across applications, so shared predictor
    state (PCAP tables, LT trees) carries over in first-seen device
    order — the fleet-wide table scope.  The whole pass is one cell so
    the resilient executor retries it atomically.  Its records, one per
    (application, lane), are keyed on the fleet fingerprint, the
    application and the lane label.
    """
    from repro.sim.artifact_cache import variant_set_fingerprint
    from repro.sim.resilience import cell_key, run_cells

    cache = runner.artifact_cache if use_cache else None
    cell = ExperimentCell(
        index=0, application=apps[0] if apps else "",
        predictor=f"fleet-shared[{len(labels)}]",
    )

    def run_cell(cell: ExperimentCell) -> list[ApplicationResult]:
        specs = make_specs()
        return [
            result
            for app in apps
            for result in run_fused_application(runner, app, specs)
        ]

    keys = None
    provenance = None
    if checkpoint is not None or cache is not None:
        keys = [tuple(
            (app, cell_key(fingerprint, label, runner.config,
                           mode=f"fleet-shared:{app}"))
            for app in apps
            for label in labels
        )]
    if checkpoint is not None:
        provenance = {
            "mode": "fleet-shared",
            "multistate": False,
            "variant_set": variant_set_fingerprint(labels, runner.config),
        }
    ledger = run_cells(
        [cell],
        run_cell,
        jobs=jobs,
        policy=policy,
        progress=progress,
        checkpoint=checkpoint,
        cell_keys=keys,
        provenance=provenance,
        cache=cache,
    )
    width = len(labels)
    outcomes: dict[str, FusedCellOutcome] = {}
    for item in ledger.results:
        for row, app in enumerate(apps):
            outcomes[app] = FusedCellOutcome(
                app, item.result[row * width:(row + 1) * width]
            )
    return outcomes, ledger


def run_fleet(
    runner: ExperimentRunner,
    devices: Union[int, Sequence[DeviceSpec]],
    predictors: Union[str, Sequence[str]] = ("PCAP",),
    *,
    tables: str = "sharded",
    jobs: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
    policy=None,
    checkpoint=None,
) -> FleetResult:
    """Simulate a device fleet under one or more predictors.

    ``devices`` is either an explicit population
    (:class:`DeviceSpec` sequence — duplicates of an application are
    replicas) or an integer, which builds a round-robin population over
    the runner's suite (:func:`replicate_devices`).  ``predictors``
    names registry predictors; every lane is evaluated against one
    streaming decode per application.

    ``tables`` selects the prediction-table scope: ``"sharded"``
    (per-application tables, devices independent — the mode whose
    per-device results are bit-identical to standalone runs) or
    ``"shared"`` (one fleet-wide table set evolved across applications
    in first-seen device order).

    Cells run on :func:`repro.sim.resilience.run_cells` under
    ``policy`` (a :class:`~repro.sim.resilience.ResiliencePolicy`,
    default one attempt per cell).  Each application × predictor lane
    is one record in ``checkpoint``'s journal and the runner's artifact
    cache: sharded fleets use the per-cell key, so they reuse the lanes
    any matrix recorded, and shared fleets key their records on the
    fleet fingerprint, so a changed population or lane set never
    resumes stale entries.  Failed cells raise
    :class:`~repro.errors.ExecutionError` — fleet aggregates over a
    silently partial population would be meaningless.
    """
    from repro.sim.artifact_cache import fleet_fingerprint
    from repro.sim.resilience import ResiliencePolicy, raise_on_failures

    if tables not in TABLE_MODES:
        raise ConfigurationError(
            f"unknown table scope {tables!r}; use one of {TABLE_MODES}"
        )
    if not fused_supported(runner):
        raise SimulationError(
            "fleet simulation replays through the fused kernel and does "
            "not support structured tracing; use an untraced runner"
        )
    names = [predictors] if isinstance(predictors, str) else list(predictors)
    if not names:
        raise ConfigurationError("a fleet run needs at least one predictor")
    population = _normalize_devices(runner, devices)
    apps, index_map = _device_index_map(population)
    config = runner.config

    fingerprint = fleet_fingerprint(
        tuple(runner.fingerprint(d.application) for d in population),
        names,
        config,
    )

    def make_specs() -> list[PredictorSpec]:
        return [make_spec(name, config) for name in names]

    policy = policy or ResiliencePolicy(max_attempts=1)
    if tables == "shared":
        outcomes, ledger = _shared_outcomes(
            runner, apps, names, make_specs, fingerprint,
            jobs=jobs, progress=progress,
            policy=policy, checkpoint=checkpoint,
        )
    else:
        outcomes, ledger = run_fused_cells(
            runner, apps, names, make_specs,
            jobs=jobs, progress=progress,
            policy=policy, checkpoint=checkpoint,
        )
    raise_on_failures(ledger, "fleet run")

    result = FleetResult(
        devices=population,
        predictors=names,
        tables=tables,
        fingerprint=fingerprint,
        ledger=ledger,
    )
    device_ids = [d.device_id for d in population]
    applications = [d.application for d in population]
    for lane, name in enumerate(names):
        columns = DeviceStateColumns(len(population))
        per_application: dict[str, ApplicationResult] = {}
        # One scatter-add per (application, lane): the whole population
        # advances per replayed event batch, row count notwithstanding.
        for app in apps:
            replay = outcomes[app].results[lane]
            per_application[app] = replay
            columns.absorb(index_map[app], replay)
        result.lanes[name] = FleetLaneResult(
            predictor=name,
            device_ids=device_ids,
            applications=applications,
            columns=columns,
            per_application=per_application,
        )
    return result


@dataclass(frozen=True, slots=True)
class FleetSweepPoint:
    """Aggregate fleet outcome of one swept parameter value."""

    value: object
    total_energy: float
    savings: float
    mean_delay: float
    slowdown_p99: float
    shutdowns: int
    delayed_requests: int


def fleet_sweep(
    runner: ExperimentRunner,
    devices: Union[int, Sequence[DeviceSpec]],
    values: Iterable,
    *,
    predictor: str = "TP",
    make_spec_fn: Optional[
        Callable[[object, SimulationConfig], PredictorSpec]
    ] = None,
    tables: str = "sharded",
    jobs: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
    policy=None,
    checkpoint=None,
) -> list[FleetSweepPoint]:
    """Sweep one predictor knob across a whole fleet.

    The fleet counterpart of :func:`repro.sim.sweep.sweep`: each swept
    value becomes one lane (labelled ``{predictor}@{value!r}``, exactly
    like classic sweep cells, so cache and checkpoint keys line up),
    plus one shared ``Base`` lane for savings — all evaluated against
    one streaming decode per application and scattered across the
    device population.  ``make_spec_fn`` builds the spec per value
    (default: the registry's ``predictor`` under the runner's
    configuration, for spec factories that ignore the value).
    ``policy`` and ``checkpoint`` behave as in :func:`run_fleet`.
    """
    from repro.sim.artifact_cache import fleet_fingerprint
    from repro.sim.resilience import ResiliencePolicy, raise_on_failures

    if tables not in TABLE_MODES:
        raise ConfigurationError(
            f"unknown table scope {tables!r}; use one of {TABLE_MODES}"
        )
    if not fused_supported(runner):
        raise SimulationError(
            "fleet sweeps replay through the fused kernel and do not "
            "support structured tracing; use an untraced runner"
        )
    point_values = list(values)
    labels = [f"{predictor}@{value!r}" for value in point_values]
    base_lane = len(labels)
    labels.append("Base")
    population = _normalize_devices(runner, devices)
    apps, index_map = _device_index_map(population)
    config = runner.config

    def make_specs() -> list[PredictorSpec]:
        specs = []
        for value in point_values:
            if make_spec_fn is not None:
                specs.append(make_spec_fn(value, config))
            else:
                specs.append(make_spec(predictor, config))
        specs.append(make_spec("Base", config))
        return specs

    fingerprint = fleet_fingerprint(
        tuple(runner.fingerprint(d.application) for d in population),
        labels,
        config,
    )
    use_cache = make_spec_fn is None
    policy = policy or ResiliencePolicy(max_attempts=1)
    if tables == "shared":
        outcomes, ledger = _shared_outcomes(
            runner, apps, labels, make_specs, fingerprint,
            jobs=jobs, progress=progress,
            policy=policy, checkpoint=checkpoint,
            use_cache=use_cache,
        )
    else:
        outcomes, ledger = run_fused_cells(
            runner, apps, labels, make_specs,
            jobs=jobs, progress=progress,
            policy=policy, checkpoint=checkpoint,
            use_cache=use_cache,
        )
    raise_on_failures(ledger, "fleet sweep")

    points: list[FleetSweepPoint] = []
    n = len(population)
    for point, value in enumerate(point_values):
        columns = DeviceStateColumns(n)
        base_columns = DeviceStateColumns(n)
        for app in apps:
            columns.absorb(index_map[app], outcomes[app].results[point])
            base_columns.absorb(
                index_map[app], outcomes[app].results[base_lane]
            )
        energy = columns.aggregate_ledger().total
        base_energy = base_columns.aggregate_ledger().total
        total_delay = float(columns.delay_seconds.sum())
        total_accesses = int(columns.disk_accesses.sum())
        slowdown = columns.delay_per_access()
        points.append(
            FleetSweepPoint(
                value=value,
                total_energy=energy,
                savings=(
                    1.0 - energy / base_energy if base_energy else 0.0
                ),
                mean_delay=(
                    total_delay / total_accesses if total_accesses else 0.0
                ),
                slowdown_p99=(
                    float(np.percentile(slowdown, 99.0)) if n else 0.0
                ),
                shutdowns=int(columns.shutdowns.sum()),
                delayed_requests=int(columns.delayed_requests.sum()),
            )
        )
    return points
