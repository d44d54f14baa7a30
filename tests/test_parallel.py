"""Pooled execution of experiment cells (the repro.sim.resilience
executor and its cell types).

The load-bearing property is determinism: a pooled run must be
*bit-identical* to the in-process run, because the reducer folds cell
results in stable index order either way.  These tests exercise that
equivalence end-to-end with real forked workers (jobs=2), plus the
supporting contracts — result dataclasses survive pickling, ``jobs=1``
never forks, a failed cell lets the others finish and is named in one
error, and ``resolve_jobs`` and the runner honour ``REPRO_JOBS``.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.config import (
    JOBS_ENV_VAR,
    SimulationConfig,
    default_jobs,
    fork_available,
    resolve_jobs,
)
from repro.errors import ConfigurationError, ExecutionError
from repro.predictors.registry import tp_spec
from repro.sim import resilience as resilience_module
from repro.sim.experiment import ExperimentRunner
from repro.sim.resilience import (
    CellProgress,
    ExperimentCell,
    stderr_progress,
)
from repro.sim.sweep import sweep

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel layer needs the fork start method"
)

APPS = ("mozilla", "xemacs")
TIMEOUTS = (2.0, 10.0)


@pytest.fixture(scope="module")
def parallel_runner(small_suite):
    return ExperimentRunner(small_suite, SimulationConfig())


# ---------------------------------------------------------------------------
# Serial vs parallel equivalence
# ---------------------------------------------------------------------------


def test_run_matrix_parallel_matches_serial(parallel_runner):
    predictors = ["TP", "PCAP"]
    serial = parallel_runner.run_matrix(
        predictors, applications=APPS, jobs=1
    )
    threaded = parallel_runner.run_matrix(
        predictors, applications=APPS, jobs=2
    )
    # ApplicationResult is a (frozen) dataclass tree of floats/ints, so
    # == here is exact — bit-identical, not approximately equal.
    assert serial == threaded
    assert list(serial) == list(threaded) == list(APPS)


def test_run_suite_parallel_matches_serial(parallel_runner):
    serial = parallel_runner.run_suite("PCAP", applications=APPS, jobs=1)
    threaded = parallel_runner.run_suite("PCAP", applications=APPS, jobs=2)
    assert serial == threaded


def test_sweep_parallel_matches_serial(parallel_runner):
    make = lambda t, cfg: tp_spec(cfg, timeout=t)
    serial = sweep(
        parallel_runner, TIMEOUTS, make_spec=make, applications=APPS, jobs=1
    )
    threaded = sweep(
        parallel_runner, TIMEOUTS, make_spec=make, applications=APPS, jobs=2
    )
    assert serial == threaded


def test_parallel_matches_plain_serial_runner(small_suite):
    """A runner built with jobs=2 equals one built with jobs=1."""
    serial_runner = ExperimentRunner(small_suite, SimulationConfig(), jobs=1)
    expected = serial_runner.run_suite("PCAP", applications=APPS)
    assert expected == {
        app: serial_runner.run_global(app, "PCAP") for app in APPS
    }
    threaded = ExperimentRunner(small_suite, SimulationConfig(), jobs=2)
    assert threaded.run_suite("PCAP", applications=APPS) == expected


# ---------------------------------------------------------------------------
# Pickling (cells and results must cross the process boundary)
# ---------------------------------------------------------------------------


def test_cell_and_result_dataclasses_pickle(parallel_runner):
    cell = ExperimentCell(index=3, application="mozilla", predictor="PCAP")
    assert pickle.loads(pickle.dumps(cell)) == cell

    result = parallel_runner.run_global("mozilla", "PCAP")
    restored = pickle.loads(pickle.dumps(result))
    assert restored == result
    assert restored.energy == result.energy
    assert restored.stats == result.stats


def test_sweep_point_pickles(parallel_runner):
    (point,) = sweep(
        parallel_runner,
        [5.0],
        make_spec=lambda t, cfg: tp_spec(cfg, timeout=t),
        applications=APPS,
    )
    assert pickle.loads(pickle.dumps(point)) == point


# ---------------------------------------------------------------------------
# jobs resolution and the serial fast path
# ---------------------------------------------------------------------------


def test_jobs_one_never_spawns_a_pool(parallel_runner, monkeypatch):
    def explode(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("jobs=1 must not fork a worker")

    monkeypatch.setattr(os, "fork", explode)
    monkeypatch.setattr(resilience_module._Executor, "run_pool", explode)
    results = parallel_runner.run_suite("TP", applications=APPS, jobs=1)
    assert set(results) == set(APPS)
    matrix = parallel_runner.run_matrix(
        ["TP", "PCAP"], applications=APPS, jobs=1
    )
    assert list(matrix) == list(APPS)


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    assert default_jobs() == 1
    assert resolve_jobs(None) == 1  # serial unless opted in

    monkeypatch.setenv(JOBS_ENV_VAR, "3")
    assert resolve_jobs(None) == 3
    assert ExperimentRunner({}).jobs == 3  # a plain runner follows it
    assert ExperimentRunner({}, jobs=1).jobs == 1

    monkeypatch.setenv(JOBS_ENV_VAR, "0")  # 0 = all cores
    assert resolve_jobs(None) >= 1

    monkeypatch.setenv(JOBS_ENV_VAR, "not-a-number")
    with pytest.raises(ConfigurationError):
        resolve_jobs(None)

    monkeypatch.setenv(JOBS_ENV_VAR, "not-a-number")
    assert resolve_jobs(4) == 4  # explicit beats the environment
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    assert resolve_jobs(-2) >= 1  # programmatic negatives mean all cores


def test_worker_exception_cleans_up_pool_state(small_suite, monkeypatch):
    """A failing cell in a pooled plain run lets the healthy cells
    finish, then raises one ExecutionError naming the cell and its
    error, without leaking the inherited cell runner."""
    real_run_global = ExperimentRunner.run_global

    def run_global(self, application, predictor, **kwargs):
        if application == "xemacs":
            raise RuntimeError("poisoned cell")
        return real_run_global(self, application, predictor, **kwargs)

    monkeypatch.setattr(ExperimentRunner, "run_global", run_global)
    events: list[CellProgress] = []
    runner = ExperimentRunner(
        small_suite, SimulationConfig(), jobs=2, progress=events.append
    )
    apps = ("mozilla", "xemacs", "nedit", "writer")
    with pytest.raises(ExecutionError) as raised:
        runner.run_matrix(["TP"], applications=apps)
    message = str(raised.value)
    assert "1 failed cell(s)" in message
    assert "cell 1 xemacs × TP: FAILED" in message
    assert "RuntimeError: poisoned cell" in message
    completed = {
        event.cell.application for event in events if event.outcome == "ok"
    }
    assert completed == {"mozilla", "nedit", "writer"}
    # The inherited-closure global is always cleared.
    assert resilience_module._CHILD_RUN_CELL is None


# ---------------------------------------------------------------------------
# Progress reporting
# ---------------------------------------------------------------------------


def test_progress_hook_fires_per_cell(parallel_runner):
    events: list[CellProgress] = []
    runner = ExperimentRunner(
        parallel_runner.suite,
        SimulationConfig(),
        jobs=2,
        progress=events.append,
    )
    runner.run_suite("TP", applications=APPS)
    assert len(events) == len(APPS)
    assert {event.cell.application for event in events} == set(APPS)
    assert sorted(event.completed for event in events) == [1, 2]
    assert all(event.total == len(APPS) for event in events)
    assert all(event.wall_time >= 0.0 for event in events)


def test_stderr_progress_formats(capsys):
    cell = ExperimentCell(index=0, application="mozilla", predictor="TP")
    stderr_progress(CellProgress(cell, wall_time=0.5, completed=1, total=4))
    captured = capsys.readouterr()
    assert "[1/4] mozilla × TP" in captured.err
