"""The device-batched fleet engine (repro.sim.fleet).

The load-bearing contract is **per-device bit-identity** in sharded
mode: every device of a batched fleet must report exactly the result
of an independent single-device ``run_global`` of its application —
the fleet engine is an execution strategy, never a different
simulation.  On top of that: deterministic aggregates (serial ==
pooled == crash-retried), shared-table semantics (first-seen device
order), streaming store-backed populations, the artifact-cache
round trip, and the checkpoint/resume path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.config import SimulationConfig
from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultPlan, FaultSpec
from repro.predictors.registry import make_spec, tp_spec
from repro.sim.columnar import (
    DEVICE_COUNT_FIELDS,
    DEVICE_FLOAT_FIELDS,
    DeviceStateColumns,
)
from repro.sim.experiment import ExperimentRunner
from repro.sim.fleet import (
    DeviceSpec,
    FleetResult,
    fleet_sweep,
    replicate_devices,
    run_fleet,
)
from repro.sim.fused import run_fused_application
from repro.config import fork_available
from repro.sim.resilience import ResiliencePolicy

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="pool path needs the fork start method"
)

APPS = ("mozilla", "xemacs")
PREDICTORS = ("PCAP", "TP", "Base")


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def runner(small_suite):
    return ExperimentRunner(small_suite, SimulationConfig())


@pytest.fixture(scope="module")
def devices():
    return replicate_devices(APPS, 7)


def columns_equal(a: DeviceStateColumns, b: DeviceStateColumns) -> bool:
    """Exact (bitwise) equality of two device-state column sets."""
    if a.n_devices != b.n_devices:
        return False
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in DEVICE_FLOAT_FIELDS + DEVICE_COUNT_FIELDS
    )


def fleets_equal(a: FleetResult, b: FleetResult) -> bool:
    """Exact equality of two fleet runs, lane by lane, row by row."""
    if a.fingerprint != b.fingerprint or a.predictors != b.predictors:
        return False
    return all(
        columns_equal(a.lane(name).columns, b.lane(name).columns)
        for name in a.predictors
    )


# ---------------------------------------------------------------------------
# Per-device bit-identity (the core contract)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_device_results_identical_to_standalone(runner, devices, predictor):
    fleet = run_fleet(runner, devices, (predictor,))
    lane = fleet.lane(predictor)
    assert lane.devices == len(devices)
    for index, device in enumerate(devices):
        solo = runner.run_global(device.application, predictor)
        assert lane.device_result(index) == solo


def test_replicas_of_one_app_are_bit_identical_rows(runner):
    fleet = run_fleet(runner, replicate_devices(("mozilla",), 5), ("PCAP",))
    lane = fleet.lane("PCAP")
    first = lane.device_result(0)
    for index in range(1, 5):
        assert lane.device_result(index) == first


def test_aggregates_match_hand_sums(runner, devices):
    fleet = run_fleet(runner, devices, ("PCAP",))
    lane = fleet.lane("PCAP")
    rows = [lane.device_result(i) for i in range(len(devices))]
    assert lane.total_energy == pytest.approx(
        sum(r.energy for r in rows), rel=1e-12
    )
    agg = lane.aggregate_stats()
    assert agg.gaps == sum(r.stats.gaps for r in rows)
    assert agg.opportunities == sum(r.stats.opportunities for r in rows)
    assert int(lane.columns.shutdowns.sum()) == sum(
        r.shutdowns for r in rows
    )
    assert float(lane.columns.delay_seconds.sum()) == pytest.approx(
        sum(r.delay_seconds for r in rows), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Determinism across execution strategies
# ---------------------------------------------------------------------------


@needs_fork
def test_serial_matches_pooled(runner, devices):
    serial = run_fleet(runner, devices, PREDICTORS, jobs=1)
    pooled = run_fleet(runner, devices, PREDICTORS, jobs=2)
    assert fleets_equal(serial, pooled)


@needs_fork
def test_crash_retried_run_bit_identical(runner, devices):
    """Satellite contract: a worker crash mid-fleet, retried by the
    resilient executor, must not perturb a single aggregate bit."""
    clean = run_fleet(runner, devices, ("PCAP", "Base"))
    plan = FaultPlan([FaultSpec(site="worker.crash", cell=0, attempts=1)])
    policy = ResiliencePolicy(
        max_attempts=3, base_delay=0.001, max_delay=0.01
    )
    with faults.injected(plan):
        survived = run_fleet(
            runner, devices, ("PCAP", "Base"),
            jobs=2, policy=policy,
        )
    assert survived.ledger is not None
    assert [e.kind for e in survived.ledger.retries] == ["crash"]
    assert fleets_equal(clean, survived)


def test_checkpoint_resume_restores_cells(runner, devices, tmp_path):
    path = tmp_path / "fleet.ckpt"
    first = run_fleet(runner, devices, ("PCAP",), checkpoint=path)
    second = run_fleet(runner, devices, ("PCAP",), checkpoint=path)
    assert second.ledger is not None
    assert second.ledger.resumed == len(APPS)  # one fused cell per app
    assert fleets_equal(first, second)


def test_store_backed_fleet_matches_in_memory(runner, devices, tmp_path):
    from repro.workloads import pack_generated

    store = pack_generated(tmp_path / "fleet-store", scale=0.25,
                           applications=APPS, chunk_rows=512)
    store_runner = ExperimentRunner(store.suite(), SimulationConfig())
    in_memory = run_fleet(runner, devices, ("PCAP",))
    streamed = run_fleet(store_runner, devices, ("PCAP",))
    # Same workload, so the per-device rows agree exactly; the
    # fingerprints differ only if the store manifest changes provenance.
    assert columns_equal(
        in_memory.lane("PCAP").columns, streamed.lane("PCAP").columns
    )


def test_artifact_cache_roundtrip(devices, small_suite, tmp_path):
    from repro.sim.artifact_cache import ArtifactCache

    cache = ArtifactCache(tmp_path / "artifacts")
    cached_runner = ExperimentRunner(
        small_suite, SimulationConfig(), artifact_cache=cache
    )
    cold = run_fleet(cached_runner, devices, ("PCAP", "Base"))
    warm = run_fleet(cached_runner, devices, ("PCAP", "Base"))
    assert fleets_equal(cold, warm)
    plain_runner = ExperimentRunner(small_suite, SimulationConfig())
    plain = run_fleet(plain_runner, devices, ("PCAP", "Base"))
    assert fleets_equal(cold, plain)


# ---------------------------------------------------------------------------
# Shared prediction tables
# ---------------------------------------------------------------------------


def test_shared_tables_replay_in_first_seen_order(runner, devices):
    fleet = run_fleet(runner, devices, ("PCAP",), tables="shared")
    lane = fleet.lane("PCAP")
    # Reference: one persistent spec walked over the applications in
    # first-seen device order (mozilla first — device 0).
    specs = [make_spec("PCAP", SimulationConfig())]
    expected = {}
    seen = []
    for device in devices:
        if device.application not in seen:
            seen.append(device.application)
    for app in seen:
        expected[app] = run_fused_application(runner, app, specs)[0]
    for app in seen:
        assert lane.per_application[app] == expected[app]


def test_shared_and_sharded_fingerprints_cache_separately(
    devices, small_suite, tmp_path
):
    from repro.sim.artifact_cache import ArtifactCache

    cache = ArtifactCache(tmp_path / "artifacts")
    cached_runner = ExperimentRunner(
        small_suite, SimulationConfig(), artifact_cache=cache
    )
    shared = run_fleet(cached_runner, devices, ("PCAP",), tables="shared")
    sharded = run_fleet(cached_runner, devices, ("PCAP",))
    # Same population → same fleet fingerprint; the cache keys differ
    # by table scope, so the shared run must not serve sharded rows.
    assert shared.fingerprint == sharded.fingerprint
    again = run_fleet(cached_runner, devices, ("PCAP",), tables="shared")
    assert fleets_equal(shared, again)


def _refuse(*args, **kwargs):
    raise AssertionError("a stored record was re-run")


def test_sharded_fleet_reads_the_lanes_a_matrix_cached(
    devices, small_suite, tmp_path, monkeypatch
):
    from repro.sim import fused as fused_module
    from repro.sim.artifact_cache import ArtifactCache

    cache = ArtifactCache(tmp_path / "artifacts")
    cached_runner = ExperimentRunner(
        small_suite, SimulationConfig(), artifact_cache=cache
    )
    cached_runner.run_matrix(["PCAP", "Base"], applications=APPS)
    expected = run_fleet(
        ExperimentRunner(small_suite, SimulationConfig()), devices,
        ("PCAP", "Base"),
    )
    monkeypatch.setattr(fused_module, "run_fused_application", _refuse)
    fleet = run_fleet(cached_runner, devices, ("PCAP", "Base"), jobs=2)
    assert fleets_equal(fleet, expected)
    assert fleet.ledger.cached == len(fleet.ledger.outcomes) == 2 * len(APPS)


def test_shared_fleet_journal_and_cache_hold_one_key_set(
    devices, small_suite, tmp_path, monkeypatch
):
    import json

    from repro.sim.artifact_cache import ArtifactCache

    def plain():
        return ExperimentRunner(small_suite, SimulationConfig())

    def cached(root):
        return ExperimentRunner(small_suite, SimulationConfig(),
                                artifact_cache=ArtifactCache(root))

    names = ("PCAP", "TP")
    path = tmp_path / "shared.ckpt"
    cold = run_fleet(cached(tmp_path / "artifacts"), devices, names,
                     tables="shared", checkpoint=path)
    # One record per (application, lane), journalled and cached under
    # the same keys.
    records = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    keys = [record["key"] for record in records if record["type"] == "cell"]
    assert len(keys) == len(set(keys)) == len(APPS) * len(names)
    assert sorted(record["application"] for record in records
                  if record["type"] == "cell") == sorted(APPS * len(names))
    cache = ArtifactCache(tmp_path / "artifacts")
    assert all(cache.path_for(key).exists() for key in keys)
    monkeypatch.setattr("repro.sim.fused.run_fused_application", _refuse)
    resumed = run_fleet(plain(), devices, names, tables="shared",
                        checkpoint=path)
    served = run_fleet(cached(tmp_path / "artifacts"), devices, names,
                       tables="shared")
    assert (resumed.ledger.resumed, served.ledger.cached) == (1, 1)
    assert fleets_equal(resumed, cold) and fleets_equal(served, cold)


def test_parent_shared_fleet_journal_loads_and_reruns_once(
    devices, small_suite, tmp_path, monkeypatch
):
    # A journal that kept a shared-table fleet as one record under a key
    # no run derives any more, headed by the provenance this mode still
    # declares: it loads, and the cell re-runs once.
    from repro.sim.artifact_cache import variant_set_fingerprint
    from repro.sim.resilience import CellCheckpoint, ExperimentCell, cell_key

    runner = ExperimentRunner(small_suite, SimulationConfig())
    names = ("PCAP",)
    expected = run_fleet(runner, devices, names, tables="shared")
    variant_fp = variant_set_fingerprint(names, runner.config)
    path = tmp_path / "parent-shared.ckpt"
    header = {"mode": "fleet-shared", "multistate": False,
              "variant_set": variant_fp}
    with CellCheckpoint(path, provenance=header) as journal:
        journal.record(
            cell_key(expected.fingerprint, f"fleet-shared:{variant_fp}",
                     runner.config),
            ExperimentCell(index=0, application=APPS[0],
                           predictor="fleet-shared[1]"),
            [],
            0.0,
        )
    calls = []
    original = run_fused_application

    def counting(runner, application, specs):
        calls.append(application)
        return original(runner, application, specs)

    monkeypatch.setattr("repro.sim.fused.run_fused_application", counting)
    fleet = run_fleet(runner, devices, names, tables="shared",
                      checkpoint=path)
    assert fleet.ledger.resumed == 0
    assert calls == list(APPS)
    assert fleets_equal(fleet, expected)


# ---------------------------------------------------------------------------
# Population plumbing and validation
# ---------------------------------------------------------------------------


def test_replicate_devices_round_robin():
    population = replicate_devices(("a", "b"), 5, prefix="node")
    assert [d.application for d in population] == ["a", "b", "a", "b", "a"]
    assert population[0].device_id == "node-0000"
    assert population[4].device_id == "node-0004"
    with pytest.raises(ConfigurationError):
        replicate_devices((), 3)
    with pytest.raises(ConfigurationError):
        replicate_devices(("a",), -1)


def test_integer_population_round_robins_the_suite(runner):
    fleet = run_fleet(runner, 5, ("Base",))
    lane = fleet.lane("Base")
    assert lane.applications == [
        runner.applications[i % len(runner.applications)] for i in range(5)
    ]


def test_unknown_application_rejected(runner):
    with pytest.raises(ConfigurationError, match="not in the runner"):
        run_fleet(runner, [DeviceSpec("d0", "no-such-app")], ("TP",))


def test_bad_table_scope_rejected(runner, devices):
    with pytest.raises(ConfigurationError, match="table scope"):
        run_fleet(runner, devices, ("TP",), tables="global")


def test_traced_runner_rejected(small_suite, devices):
    traced = ExperimentRunner(
        small_suite, SimulationConfig(), tracing=True
    )
    with pytest.raises(SimulationError, match="structured tracing"):
        run_fleet(traced, devices, ("TP",))


def test_empty_fleet_is_empty_not_an_error(runner):
    fleet = run_fleet(runner, [], ("TP",))
    lane = fleet.lane("TP")
    assert lane.devices == 0
    assert lane.total_energy == 0.0
    assert lane.slowdown_percentiles() == {50.0: 0.0, 90.0: 0.0, 99.0: 0.0}


def test_fingerprint_tracks_population_and_lanes(runner, devices):
    base = run_fleet(runner, devices, ("TP",)).fingerprint
    # Rotating by one changes the application sequence (a reversal
    # would not: a 7-device round-robin over 2 apps is a palindrome).
    rotated = devices[1:] + devices[:1]
    reordered = run_fleet(runner, rotated, ("TP",)).fingerprint
    more_devices = run_fleet(runner, devices + devices[:1],
                             ("TP",)).fingerprint
    other_lanes = run_fleet(runner, devices, ("TP", "Base")).fingerprint
    assert len({base, reordered, more_devices, other_lanes}) == 4


# ---------------------------------------------------------------------------
# Fleet-level metrics and sweeps
# ---------------------------------------------------------------------------


def test_slowdown_percentiles_ordered(runner, devices):
    lane = run_fleet(runner, devices, ("PCAP",)).lane("PCAP")
    spread = lane.slowdown_percentiles((50.0, 90.0, 99.0))
    assert list(spread) == [50.0, 90.0, 99.0]
    assert spread[50.0] <= spread[90.0] <= spread[99.0]
    per_device = lane.columns.delay_per_access()
    assert spread[99.0] <= float(per_device.max())


def test_render_is_deterministic(runner, devices):
    first = run_fleet(runner, devices, PREDICTORS).render()
    second = run_fleet(runner, devices, PREDICTORS).render()
    assert first == second
    assert "Base" in first and "vs Base" in first


def test_fleet_sweep_matches_single_device_sweep(runner):
    points = fleet_sweep(
        runner,
        replicate_devices(("mozilla",), 3),
        [2.0, 30.0],
        make_spec_fn=lambda t, cfg: tp_spec(cfg, timeout=t),
    )
    assert len(points) == 2
    solo = [
        run_fused_application(
            runner, "mozilla",
            [tp_spec(SimulationConfig(), timeout=t)],
        )[0]
        for t in (2.0, 30.0)
    ]
    # 3 identical devices: fleet totals are exactly 3x the single run.
    for point, reference in zip(points, solo):
        assert point.total_energy == pytest.approx(
            3 * reference.energy, rel=1e-12
        )
        assert point.shutdowns == 3 * reference.shutdowns
    # Short timeouts shut down more often than long ones on this trace.
    assert points[0].shutdowns >= points[1].shutdowns
