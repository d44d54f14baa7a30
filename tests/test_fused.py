"""Fused single-pass multi-predictor kernel (repro.sim.fused).

The contract under test: the fused kernel is *purely an execution
strategy* — for every registered predictor, every entry point
(``run_fused_application``, the fused ``sweep()`` path, the fused
matrix), and every execution substrate (serial, fork pool, store-backed
streaming traces, the resilient executor with injected worker crashes),
its results are bit-identical to the classic reference: one
``ExperimentRunner.run_global`` call per (application, variant).  The
kernel earns its keep on speed and memory, never on changed numbers.
Every multi-predictor matrix and sweep takes the fused path; a
single-predictor matrix stays per cell.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import faults
from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.faults import FaultPlan, FaultSpec
from repro.predictors.registry import KNOWN_PREDICTORS, make_spec, tp_spec
from repro.sim.artifact_cache import ArtifactCache, variant_set_fingerprint
from repro.sim import fused as fused_module
from repro.sim.experiment import ExperimentRunner
from repro.sim.fused import (
    FusedCellOutcome,
    fused_eligible,
    fused_supported,
    run_fused_application,
    run_fused_cells,
)
from repro.config import fork_available
from repro.sim.resilience import ResiliencePolicy, cell_key
from repro.sim.sweep import sweep
from repro.workloads import build_suite, pack_generated
from tests.helpers import classic_matrix, classic_sweep

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="pool path needs the fork start method"
)

#: Fast retry policy for the fault-injection tests.
QUICK = ResiliencePolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)

#: Two-application slice: mozilla stresses forks/exits, mplayer has the
#: densest access stream.  (build_suite memoizes, so this is cheap.)
APPS = ("mozilla", "mplayer")

#: A representative matrix column set: constant-delay lane (TP), generic
#: per-process lanes (LT, PCAPfh), and both omniscient lanes.
MATRIX_NAMES = ("TP", "LT", "PCAPfh", "Ideal", "Base")


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def runner(config):
    return ExperimentRunner(
        build_suite(scale=0.25, applications=APPS), config
    )


@pytest.fixture(scope="module")
def parallel_runner(config):
    return ExperimentRunner(
        build_suite(scale=0.25, applications=APPS), config
    )


# ---------------------------------------------------------------------------
# Per-variant bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("application", APPS)
def test_every_known_predictor_bit_identical(runner, config, application):
    """One fused pass over ALL registered predictors equals one classic
    simulation per predictor — stats, energy ledger, shutdowns, delays,
    table sizes, everything ApplicationResult carries."""
    fused = run_fused_application(
        runner,
        application,
        [make_spec(name, config) for name in KNOWN_PREDICTORS],
    )
    classic = [
        runner.run_global(application, make_spec(name, config))
        for name in KNOWN_PREDICTORS
    ]
    assert fused == classic


def test_tracing_runner_rejects_fused(config):
    traced = ExperimentRunner(
        build_suite(scale=0.25, applications=("mozilla",)),
        config,
        tracing=True,
    )
    assert not fused_supported(traced)
    with pytest.raises(SimulationError, match="tracing"):
        run_fused_application(traced, "mozilla", [make_spec("TP", config)])


def test_fused_supported_excludes_multistate(runner):
    assert fused_supported(runner)
    assert not fused_supported(runner, multistate=True)


def test_fused_eligible_needs_two_global_lanes(runner):
    assert fused_eligible(runner, 2)
    assert not fused_eligible(runner, 1)
    assert not fused_eligible(runner, 3, mode="local")
    assert not fused_eligible(runner, 3, multistate=True)


def test_single_predictor_matrix_stays_per_cell(
    runner, parallel_runner, monkeypatch
):
    """One lane cannot pay for building the tape, so a one-predictor
    matrix — ``repro run``'s default — never enters the kernel."""
    def refuse(*args, **kwargs):
        raise AssertionError("a one-predictor matrix took the fused path")

    monkeypatch.setattr(fused_module, "run_fused_application", refuse)
    expected = classic_matrix(runner, ["TP"], APPS)
    assert runner.run_matrix(["TP"], applications=APPS) == expected
    assert parallel_runner.run_matrix(
        ["TP"], applications=APPS, jobs=1
    ) == expected
    report = parallel_runner.run_matrix_resilient(
        ["TP"], applications=APPS, jobs=1, policy=QUICK
    )
    assert report.matrix == expected


# ---------------------------------------------------------------------------
# Sweep and matrix equivalence
# ---------------------------------------------------------------------------


def test_sweep_fused_matches_classic(runner):
    values = (0.5, 2.0, 10.0)

    def timeout_spec(value, cfg):
        return tp_spec(cfg, timeout=value, name=f"TP({value:g}s)")

    fused = sweep(
        runner, values, make_spec=timeout_spec, applications=APPS, jobs=1
    )
    assert fused == classic_sweep(runner, values, timeout_spec, APPS)


def test_sweep_fused_named_predictors(runner):
    """Sweeping registry names (the Figure-7 shape) is fused-eligible
    and identical, including the shared Base baseline per point."""
    names = ("TP", "PCAP", "PCAPfh")
    by_name = lambda name, cfg: make_spec(name, cfg)  # noqa: E731
    fused = sweep(runner, names, make_spec=by_name, applications=APPS, jobs=1)
    assert fused == classic_sweep(runner, names, by_name, APPS)


def test_matrix_fused_matches_classic_serial(parallel_runner):
    fused = parallel_runner.run_matrix(
        MATRIX_NAMES, applications=APPS, jobs=1
    )
    assert fused == classic_matrix(parallel_runner, MATRIX_NAMES, APPS)
    # Rows are keyed by the *requested* registry names, like classic.
    assert set(fused["mozilla"]) == set(MATRIX_NAMES)


@needs_fork
def test_matrix_fused_matches_classic_pooled(parallel_runner):
    fused = parallel_runner.run_matrix(
        MATRIX_NAMES, applications=APPS, jobs=2
    )
    assert fused == classic_matrix(parallel_runner, MATRIX_NAMES, APPS)


def test_serial_runner_matrix_fused(runner):
    fused = runner.run_matrix(MATRIX_NAMES, applications=APPS)
    assert fused == classic_matrix(runner, MATRIX_NAMES, APPS)


# ---------------------------------------------------------------------------
# Store-backed streaming traces
# ---------------------------------------------------------------------------


def test_store_backed_fused_bit_identical(tmp_path, runner, config):
    """Fused over a chunked on-disk store equals fused (and classic)
    over the in-memory suite — the tape builder consumes the streaming
    ExecutionLike protocol one chunk at a time."""
    store = pack_generated(
        tmp_path / "store", scale=0.25, applications=APPS, chunk_rows=512
    )
    stored = ExperimentRunner(store.suite(), config)
    specs = lambda: [make_spec(n, config) for n in MATRIX_NAMES]
    from_store = run_fused_application(stored, "mozilla", specs())
    in_memory = run_fused_application(runner, "mozilla", specs())
    assert from_store == in_memory


# ---------------------------------------------------------------------------
# Resilient execution with injected faults
# ---------------------------------------------------------------------------


@needs_fork
def test_resilient_fused_survives_worker_crash(parallel_runner):
    """A fused cell whose worker crashes once is retried and the final
    matrix is bit-identical to the unfaulted classic run."""
    plan = FaultPlan([FaultSpec(site="worker.crash", cell=0, attempts=1)])
    with faults.injected(plan):
        report = parallel_runner.run_matrix_resilient(
            MATRIX_NAMES,
            applications=APPS,
            jobs=2,
            policy=QUICK,
        )
    assert report.complete
    assert [e.kind for e in report.ledger.retries] == ["crash"]
    assert report.matrix == classic_matrix(
        parallel_runner, MATRIX_NAMES, APPS
    )


@needs_fork
def test_resilient_fused_all_success_path(parallel_runner):
    report = parallel_runner.run_matrix_resilient(
        MATRIX_NAMES, applications=APPS, jobs=2, policy=QUICK
    )
    assert report.complete
    assert len(report.ledger.outcomes) == len(APPS)  # one cell per app
    assert report.matrix == classic_matrix(
        parallel_runner, MATRIX_NAMES, APPS
    )


# ---------------------------------------------------------------------------
# Artifact-cache keying
# ---------------------------------------------------------------------------


def test_variant_set_fingerprint_pins_labels_and_config():
    config = SimulationConfig()
    base = variant_set_fingerprint(("TP", "LT"), config)
    assert variant_set_fingerprint(("TP", "LT"), config) == base
    # Different variant set, different order, different config: all
    # distinct keys — no fused artifact can serve a stale lane set.
    assert variant_set_fingerprint(("TP",), config) != base
    assert variant_set_fingerprint(("LT", "TP"), config) != base
    other = SimulationConfig(timeout=42.0)
    assert variant_set_fingerprint(("TP", "LT"), other) != base


def test_fused_cells_roundtrip_through_artifact_cache(tmp_path, config):
    cache = ArtifactCache(tmp_path)
    runner = ExperimentRunner(
        build_suite(scale=0.25, applications=("mozilla",)),
        config,
        artifact_cache=cache,
    )
    labels = ("TP", "Base")
    make_specs = lambda: [make_spec(n, config) for n in labels]
    cold, _ = run_fused_cells(runner, ("mozilla",), labels, make_specs, jobs=1)
    # One entry per lane, under the key the journal and the per-cell
    # path use.
    fingerprint = runner.fingerprint("mozilla")
    for lane, label in enumerate(labels):
        assert cache.get(cell_key(fingerprint, label, config)) == (
            True, cold["mozilla"].results[lane])
    hits_before = cache.stats.hits
    warm, ledger = run_fused_cells(
        runner, ("mozilla",), labels, make_specs, jobs=1
    )
    assert cache.stats.hits - hits_before == len(labels)
    # Each stored lane is restored as a cell of its own.
    assert ledger.cached == len(ledger.outcomes) == len(labels)
    assert warm == cold
    assert isinstance(warm["mozilla"], FusedCellOutcome)
    # Opaque variant sets must not populate or consult the cache.
    stats_before = (cache.stats.hits, cache.stats.misses, cache.stats.stores)
    run_fused_cells(
        runner, ("mozilla",), labels, make_specs, jobs=1, use_cache=False
    )
    assert (cache.stats.hits, cache.stats.misses,
            cache.stats.stores) == stats_before


# ---------------------------------------------------------------------------
# Memory bound
# ---------------------------------------------------------------------------


def test_fused_pass_memory_stays_bounded(runner, config):
    """Adding lanes must not multiply peak memory: the tape is shared
    and per-lane state is a handful of accumulators, so a 13-lane pass
    stays within a small constant of a single-lane pass."""
    runner.filtered("mozilla")  # warm the filter memo out of the measurement

    def peak(lanes):
        tracemalloc.start()
        try:
            run_fused_application(
                runner,
                "mozilla",
                [make_spec(n, config) for n in lanes],
            )
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak_bytes

    single = peak(("PCAPfh",))
    many = peak(
        ("TP", "TP-BE", "LT", "LTa", "PCAP", "PCAPh", "PCAPf", "PCAPfh",
         "PCAPa", "PCAPc", "EXP", "Ideal", "Base")
    )
    assert many < single * 3 + 512 * 1024
