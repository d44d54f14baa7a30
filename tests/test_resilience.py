"""Fault injection and the resilient executor (repro.faults,
repro.sim.resilience).

The contracts under test:

* fault plans are deterministic — worker faults select on cell identity
  and attempt number, never scheduling order;
* on the all-success path the executor's pooled run is bit-identical
  to its in-process run;
* injected crashes, hangs, and failures are retried under the policy,
  terminal failures become :class:`CellFailure` records instead of
  aborting the run, and repeated pool incidents degrade gracefully to
  in-process execution;
* the checkpoint journal restores completed cells so a rerun executes
  only unfinished work, and tolerates a torn tail.
"""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.config import SimulationConfig, fork_available
from repro.errors import ExecutionError, FaultPlanError
from repro.faults import FaultPlan, FaultSpec, parse_fault_plan
from repro.predictors.registry import tp_spec
from repro.sim import resilience as resilience_module
from repro.disk.energy import EnergyBreakdown
from repro.sim.experiment import ApplicationResult, ExperimentRunner
from repro.sim.metrics import PredictionStats
from repro.errors import CheckpointError
from repro.sim.resilience import (
    CellCheckpoint,
    CellProgress,
    ExperimentCell,
    stderr_progress,
    CellFailure,
    ResiliencePolicy,
    cell_key,
    raise_on_failures,
    run_cells,
)
from repro.sim import experiment as experiment_module
from repro.sim import fused as fused_module
from repro.sim.sweep import sweep
from tests.helpers import classic_matrix, classic_sweep

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="pool path needs the fork start method"
)

#: Fast policy shared by the retry tests.
QUICK = ResiliencePolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.clear()
    yield
    faults.clear()


def toy_cells(n: int) -> list[ExperimentCell]:
    return [
        ExperimentCell(index=i, application=f"app{i}", predictor="TP")
        for i in range(n)
    ]


def toy_runner(cell: ExperimentCell) -> int:
    return cell.index * 10


def toy_record(cell: ExperimentCell) -> ApplicationResult:
    """A storable toy result: a record must name its application."""
    return ApplicationResult(
        application=cell.application, predictor=cell.predictor,
        stats=PredictionStats(), ledger=EnergyBreakdown(),
        executions=cell.index * 10, total_disk_accesses=0, shutdowns=0,
        table_size=None,
    )


def toy_keys(cells: list[ExperimentCell]) -> list[tuple[str, str]]:
    """One record key per toy cell, bound to the cell's application."""
    return [(cell.application, f"key-{cell.index}") for cell in cells]


# ---------------------------------------------------------------------------
# Fault-plan parsing and matching
# ---------------------------------------------------------------------------


def test_parse_fault_plan_full_grammar():
    plan = parse_fault_plan(
        "worker.crash,cell=3,attempts=99; worker.hang,cell=7,seconds=15;"
        "cache.corrupt-read,at=2,count=3; worker.fail,app=mozilla; seed=7"
    )
    assert plan.seed == 7
    crash, hang, corrupt, fail = plan.specs
    assert (crash.site, crash.cell, crash.attempts) == ("worker.crash", 3, 99)
    assert (hang.cell, hang.seconds) == (7, 15.0)
    assert (corrupt.at, corrupt.count) == (2, 3)
    assert fail.application == "mozilla"
    assert plan.specs_for("worker.hang") == (hang,)
    assert plan.specs_for("persist.os-error") == ()


@pytest.mark.parametrize("text", [
    "bogus.site",
    "worker.crash,cell=three",
    "worker.crash,cellthree",
    "worker.crash,unknown=1",
    "seed=x",
    "seed=1,cell=2",
])
def test_parse_fault_plan_rejects_malformed(text):
    with pytest.raises(FaultPlanError):
        parse_fault_plan(text)


def test_fault_spec_validation():
    with pytest.raises(FaultPlanError):
        FaultSpec(site="worker.hang", seconds=0.0)
    with pytest.raises(FaultPlanError):
        FaultSpec(site="cache.corrupt-read", at=0)


def test_worker_site_matches_cell_and_attempt_not_order():
    plan = FaultPlan([FaultSpec(site="worker.fail", cell=2, attempts=2)])
    # Any invocation order gives the same answer: pure function of
    # (cell, attempt) for attempt-scoped sites.
    assert plan.match("worker.fail", cell=1, attempt=1) is None
    assert plan.match("worker.fail", cell=2, attempt=3) is None
    assert plan.match("worker.fail", cell=2, attempt=2) is not None
    assert plan.match("worker.fail", cell=2, attempt=1) is not None
    assert len(plan.fired) == 2


def test_counter_site_fires_in_its_window():
    plan = FaultPlan([FaultSpec(site="cache.corrupt-read", at=2, count=2)])
    fired = [
        plan.match("cache.corrupt-read") is not None for _ in range(5)
    ]
    assert fired == [False, True, True, False, False]
    assert [r.invocation for r in plan.fired] == [2, 3]


def test_injected_context_manager_installs_and_clears():
    plan = FaultPlan([])
    with faults.injected(plan):
        assert faults.active() is plan
    assert faults.active() is None


def test_plan_from_env(monkeypatch):
    monkeypatch.delenv(faults.FAULT_PLAN_ENV_VAR, raising=False)
    assert faults.plan_from_env() is None
    monkeypatch.setenv(faults.FAULT_PLAN_ENV_VAR, "worker.fail,cell=1")
    plan = faults.plan_from_env()
    assert plan is not None and plan.specs[0].cell == 1


# ---------------------------------------------------------------------------
# Policy and backoff
# ---------------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ValueError):
        ResiliencePolicy(max_attempts=0)
    with pytest.raises(ValueError):
        ResiliencePolicy(cell_timeout=-1.0)
    with pytest.raises(ValueError):
        ResiliencePolicy(degrade_after=0)


def test_backoff_deterministic_capped_and_growing():
    policy = ResiliencePolicy(base_delay=0.1, max_delay=0.5, jitter=0.25,
                              seed=3)
    again = ResiliencePolicy(base_delay=0.1, max_delay=0.5, jitter=0.25,
                             seed=3)
    delays = [policy.backoff(4, attempt) for attempt in (2, 3, 4, 9)]
    assert delays == [again.backoff(4, attempt) for attempt in (2, 3, 4, 9)]
    # Exponential under the cap, jitter-stretched by at most 25 %.
    assert 0.1 <= delays[0] <= 0.125
    assert 0.2 <= delays[1] <= 0.25
    assert delays[3] <= 0.5 * 1.25
    # A different seed or cell reshuffles the jitter.
    other = ResiliencePolicy(base_delay=0.1, max_delay=0.5, jitter=0.25,
                             seed=4)
    assert other.backoff(4, 2) != delays[0]
    assert policy.backoff(5, 2) != delays[0]


# ---------------------------------------------------------------------------
# Success-path equivalence: pooled vs in-process
# ---------------------------------------------------------------------------


@needs_fork
@pytest.mark.parametrize("jobs", [2, 3])
def test_pooled_run_cells_matches_in_process_on_success(jobs):
    cells = toy_cells(7)
    in_process = run_cells(cells, toy_runner, jobs=1, policy=QUICK)
    ledger = run_cells(cells, toy_runner, jobs=jobs, policy=QUICK)
    for run in (in_process, ledger):
        assert not run.failures and not run.retries
        assert not run.degraded
    assert [r.cell for r in ledger.results] == cells
    assert [(r.cell, r.result) for r in ledger.results] == [
        (r.cell, r.result) for r in in_process.results
    ]


@needs_fork
def test_resilient_matrix_bit_identical_to_plain(small_suite):
    runner = ExperimentRunner(small_suite, SimulationConfig())
    apps = ("mozilla", "xemacs")
    plain = runner.run_matrix(["TP"], applications=apps, jobs=1)
    report = runner.run_matrix_resilient(
        ["TP"], applications=apps, jobs=2, policy=QUICK
    )
    assert report.complete
    assert report.matrix == plain


def test_run_cells_empty():
    ledger = run_cells([], toy_runner, jobs=4)
    assert ledger.outcomes == [] and ledger.results == []


# ---------------------------------------------------------------------------
# Retries, terminal failures, crashes, timeouts
# ---------------------------------------------------------------------------


def test_transient_fault_retried_to_success():
    plan = FaultPlan([FaultSpec(site="worker.fail", cell=2, attempts=1)])
    with faults.injected(plan):
        ledger = run_cells(toy_cells(4), toy_runner, jobs=1, policy=QUICK)
    assert not ledger.failures
    assert [e.cell.index for e in ledger.retries] == [2]
    assert ledger.retries[0].kind == "error"
    assert "InjectedFault" in ledger.retries[0].message
    assert [r.result for r in ledger.results] == [0, 10, 20, 30]


def test_terminal_failure_reports_partial_results():
    plan = FaultPlan([FaultSpec(site="worker.fail", cell=1, attempts=99)])
    with faults.injected(plan):
        ledger = run_cells(toy_cells(3), toy_runner, jobs=1, policy=QUICK)
    (failure,) = ledger.failures
    assert isinstance(failure, CellFailure)
    assert failure.cell.index == 1
    assert len(failure.attempts) == QUICK.max_attempts
    assert failure.last.kind == "error"
    assert [r.cell.index for r in ledger.results] == [0, 2]
    rendered = ledger.render()
    assert "FAILED after 3 attempt(s)" in rendered
    with pytest.raises(ExecutionError, match="1 failed"):
        raise_on_failures(ledger, "test run")


def test_raise_on_failures_quiet_when_clean():
    ledger = run_cells(toy_cells(2), toy_runner, jobs=1)
    raise_on_failures(ledger, "test run")  # must not raise


@needs_fork
def test_worker_crash_is_terminal_with_retry_history():
    plan = FaultPlan([FaultSpec(site="worker.crash", cell=1, attempts=99)])
    policy = ResiliencePolicy(max_attempts=2, base_delay=0.001)
    with faults.injected(plan):
        ledger = run_cells(toy_cells(4), toy_runner, jobs=2, policy=policy)
    (failure,) = ledger.failures
    assert failure.cell.index == 1
    assert [e.kind for e in failure.attempts] == ["crash", "crash"]
    assert str(faults.CRASH_EXIT_CODE) in failure.last.message
    assert [r.result for r in ledger.results] == [0, 20, 30]


@needs_fork
def test_crashed_attempt_recovers_when_transient():
    plan = FaultPlan([FaultSpec(site="worker.crash", cell=0, attempts=1)])
    with faults.injected(plan):
        ledger = run_cells(toy_cells(2), toy_runner, jobs=2, policy=QUICK)
    assert not ledger.failures
    assert [e.kind for e in ledger.retries] == ["crash"]
    assert [r.result for r in ledger.results] == [0, 10]


@needs_fork
def test_hung_worker_killed_and_retried():
    plan = FaultPlan([FaultSpec(site="worker.hang", cell=1, seconds=30.0)])
    policy = ResiliencePolicy(
        max_attempts=2, cell_timeout=0.5, base_delay=0.001
    )
    with faults.injected(plan):
        ledger = run_cells(toy_cells(3), toy_runner, jobs=2, policy=policy)
    assert not ledger.failures
    assert [e.kind for e in ledger.retries] == ["timeout"]
    assert ledger.retries[0].cell.index == 1
    assert [r.result for r in ledger.results] == [0, 10, 20]


@needs_fork
def test_pool_degrades_to_in_process_after_repeated_crashes():
    # Unscoped crash: every pool attempt of every cell dies.  Because
    # the fault only fires inside real worker processes, degradation to
    # in-process execution is exactly what rescues the run.
    plan = FaultPlan([FaultSpec(site="worker.crash", attempts=99)])
    policy = ResiliencePolicy(
        max_attempts=4, base_delay=0.001, degrade_after=2
    )
    with faults.injected(plan):
        ledger = run_cells(toy_cells(4), toy_runner, jobs=2, policy=policy)
    assert ledger.degraded
    assert not ledger.failures
    assert [r.result for r in ledger.results] == [0, 10, 20, 30]
    assert all(e.kind == "crash" for e in ledger.retries)


# ---------------------------------------------------------------------------
# Fork-unavailable platforms: the in-process path (satellite S4)
# ---------------------------------------------------------------------------


def test_serial_path_honours_timeout_and_retries(monkeypatch):
    monkeypatch.setattr(resilience_module, "fork_available", lambda: False)
    plan = FaultPlan([FaultSpec(site="worker.hang", cell=0, seconds=5.0)])
    policy = ResiliencePolicy(
        max_attempts=2, cell_timeout=0.2, base_delay=0.001
    )
    with faults.injected(plan):
        ledger = run_cells(toy_cells(2), toy_runner, jobs=4, policy=policy)
    assert not ledger.failures
    assert [e.kind for e in ledger.retries] == ["timeout"]
    assert "abandoned" in ledger.retries[0].message
    assert [r.result for r in ledger.results] == [0, 10]


def test_serial_path_retries_injected_failures(monkeypatch):
    monkeypatch.setattr(resilience_module, "fork_available", lambda: False)
    plan = FaultPlan([FaultSpec(site="worker.fail", cell=1, attempts=2)])
    with faults.injected(plan):
        ledger = run_cells(toy_cells(2), toy_runner, jobs=8, policy=QUICK)
    assert not ledger.failures
    assert [e.attempt for e in ledger.retries] == [1, 2]
    assert [r.result for r in ledger.results] == [0, 10]


def test_in_process_timeout_skipped_when_unlimited():
    calls = []

    def runner(cell):
        calls.append(cell.index)
        return cell.index

    ledger = run_cells(
        toy_cells(2), runner, jobs=1,
        policy=ResiliencePolicy(cell_timeout=None),
    )
    assert calls == [0, 1]
    assert not ledger.retries


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


def test_checkpoint_resume_skips_completed_cells(tmp_path):
    path = tmp_path / "run.ckpt"
    cells = toy_cells(5)
    keys = toy_keys(cells)
    calls: list[int] = []

    def counting(cell):
        calls.append(cell.index)
        return toy_record(cell)

    first = run_cells(cells, counting, jobs=1, checkpoint=path,
                      cell_keys=keys)
    assert not first.failures and first.resumed == 0
    assert calls == [0, 1, 2, 3, 4]

    calls.clear()
    second = run_cells(cells, counting, jobs=1, checkpoint=path,
                       cell_keys=keys)
    assert calls == []  # every cell restored from the journal
    assert second.resumed == 5
    assert [(r.cell, r.result) for r in second.results] == [
        (r.cell, r.result) for r in first.results
    ]


def test_resume_reruns_only_unfinished_cells(tmp_path):
    path = tmp_path / "run.ckpt"
    cells = toy_cells(4)
    keys = toy_keys(cells)
    plan = FaultPlan([FaultSpec(site="worker.fail", cell=2, attempts=99)])
    policy = ResiliencePolicy(max_attempts=1)
    with faults.injected(plan):
        first = run_cells(cells, toy_record, jobs=1, policy=policy,
                          checkpoint=path, cell_keys=keys)
    assert [f.cell.index for f in first.failures] == [2]

    # The failed cell was never journalled; a fault-free rerun executes
    # exactly that one cell and completes the suite.
    calls: list[int] = []

    def counting(cell):
        calls.append(cell.index)
        return toy_record(cell)

    second = run_cells(cells, counting, jobs=1, checkpoint=path,
                       cell_keys=keys)
    assert calls == [2]
    assert second.resumed == 3
    assert not second.failures
    assert [r.result.executions for r in second.results] == [0, 10, 20, 30]


def test_checkpoint_tolerates_torn_tail(tmp_path):
    path = tmp_path / "run.ckpt"
    cells = toy_cells(3)
    run_cells(cells, toy_record, jobs=1, checkpoint=path,
              cell_keys=toy_keys(cells))
    # Simulate a crash mid-append: a torn half-record at the tail.
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('{"type": "cell", "key": "key-torn", "resu')
    with pytest.warns(RuntimeWarning, match="torn partial record"):
        restored = CellCheckpoint(path)
    assert restored.skipped_lines == 1
    assert restored.loaded == 3
    assert restored.get("key-1") is not None
    assert restored.get("key-torn") is None


def test_checkpoint_appends_cleanly_after_torn_tail(tmp_path):
    """The crash window: resuming over a torn tail must not let the next
    append concatenate onto the partial line and corrupt both records."""
    path = tmp_path / "run.ckpt"
    cell = ExperimentCell(index=0, application="alpha", predictor="TP")
    with CellCheckpoint(path) as checkpoint:
        checkpoint.record("k0", cell, {"energy": 1.0}, 0.1)
        checkpoint.record("k1", cell, {"energy": 2.0}, 0.2)
    intact = path.read_bytes()
    # Tear the final record mid-line, then resume and append a new one.
    path.write_bytes(intact[:-20])
    with pytest.warns(RuntimeWarning, match="torn partial record"):
        with CellCheckpoint(path) as resumed:
            assert resumed.loaded == 1
            resumed.record("k2", cell, {"energy": 3.0}, 0.3)
    # The torn bytes are gone and the new record starts on its own line.
    reloaded = CellCheckpoint(path)
    assert reloaded.skipped_lines == 0
    assert reloaded.get("k0") == ({"energy": 1.0}, 0.1)
    assert reloaded.get("k1") is None
    assert reloaded.get("k2") == ({"energy": 3.0}, 0.3)


def test_checkpoint_repairs_missing_final_newline(tmp_path):
    path = tmp_path / "run.ckpt"
    cell = ExperimentCell(index=0, application="alpha", predictor="TP")
    with CellCheckpoint(path) as checkpoint:
        checkpoint.record("k0", cell, {"energy": 1.0}, 0.1)
    # Crash between the record bytes and its newline: record intact.
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    with CellCheckpoint(path) as resumed:
        assert resumed.loaded == 1
        resumed.record("k1", cell, {"energy": 2.0}, 0.2)
    reloaded = CellCheckpoint(path)
    assert reloaded.skipped_lines == 0
    assert reloaded.get("k0") == ({"energy": 1.0}, 0.1)
    assert reloaded.get("k1") == ({"energy": 2.0}, 0.2)


def test_checkpoint_records_survive_reload(tmp_path):
    path = tmp_path / "cells.ckpt"
    cell = ExperimentCell(index=0, application="alpha", predictor="TP")
    with CellCheckpoint(path) as checkpoint:
        checkpoint.record("k0", cell, {"energy": 1.5}, 0.25)
    restored = CellCheckpoint(path)
    result, wall = restored.get("k0")
    assert result == {"energy": 1.5} and wall == 0.25
    record = json.loads(path.read_text().splitlines()[0])
    assert record["application"] == "alpha"
    assert record["format"] == resilience_module.CHECKPOINT_FORMAT


def test_checkpoint_requires_keys():
    with pytest.raises(ValueError, match="cell_keys"):
        run_cells(toy_cells(2), toy_runner, checkpoint="unused.ckpt")
    with pytest.raises(ValueError, match="length"):
        run_cells(toy_cells(2), toy_runner, cell_keys=["only-one"])


def test_cell_key_varies_with_every_input():
    config = SimulationConfig()
    base = cell_key("f" * 40, "PCAP", config)
    assert base == cell_key("f" * 40, "PCAP", config)
    assert base != cell_key("e" * 40, "PCAP", config)
    assert base != cell_key("f" * 40, "TP", config)
    assert base != cell_key("f" * 40, "PCAP", config, mode="local")
    assert base != cell_key("f" * 40, "PCAP", config, multistate=True)
    other = SimulationConfig(wait_window=3.0)
    assert base != cell_key("f" * 40, "PCAP", other)


# ---------------------------------------------------------------------------
# Progress surfacing (satellite S3)
# ---------------------------------------------------------------------------


def test_progress_events_surface_retries():
    plan = FaultPlan([FaultSpec(site="worker.fail", cell=1, attempts=1)])
    events: list[CellProgress] = []
    with faults.injected(plan):
        run_cells(toy_cells(2), toy_runner, jobs=1, policy=QUICK,
                  progress=events.append)
    flat = [(e.cell.index, e.attempt, e.outcome) for e in events]
    assert flat == [(0, 1, "ok"), (1, 1, "retry"), (1, 2, "ok")]


def test_progress_events_surface_resume(tmp_path):
    path = tmp_path / "run.ckpt"
    cells = toy_cells(2)
    keys = toy_keys(cells)
    run_cells(cells, toy_record, jobs=1, checkpoint=path, cell_keys=keys)
    events: list[CellProgress] = []
    run_cells(cells, toy_record, jobs=1, checkpoint=path, cell_keys=keys,
              progress=events.append)
    assert [(e.outcome, e.attempt) for e in events] == [
        ("resumed", 0), ("resumed", 0)
    ]


def test_stderr_progress_annotates_recovery(capsys):
    cell = ExperimentCell(index=0, application="mozilla", predictor="TP")
    stderr_progress(CellProgress(cell, 0.5, 1, 4, attempt=2,
                                 outcome="retry"))
    stderr_progress(CellProgress(cell, 0.5, 2, 4, attempt=3,
                                 outcome="failed", degraded=True))
    stderr_progress(CellProgress(cell, 0.0, 3, 4, attempt=0,
                                 outcome="resumed"))
    err = capsys.readouterr().err
    assert "[attempt 2] RETRYING" in err
    assert "[attempt 3] FAILED" in err
    assert "[degraded: in-process]" in err
    assert "(resumed from checkpoint)" in err


# ---------------------------------------------------------------------------
# Integration: suite runs, sweeps, and the acceptance chaos scenario
# ---------------------------------------------------------------------------


APPS = ("mozilla", "xemacs")


def test_run_suite_checkpoint_roundtrip(small_suite, tmp_path):
    path = tmp_path / "suite.ckpt"
    runner = ExperimentRunner(small_suite, SimulationConfig())
    first = runner.run_suite("TP", applications=APPS, checkpoint=path)
    size = path.stat().st_size
    second = runner.run_suite("TP", applications=APPS, checkpoint=path)
    assert second == first
    # The resumed run journalled nothing new.
    assert path.stat().st_size == size
    plain = runner.run_suite("TP", applications=APPS)
    assert plain == first


def test_sweep_checkpoint_resumes(small_suite, tmp_path):
    path = tmp_path / "sweep.ckpt"
    runner = ExperimentRunner(small_suite, SimulationConfig())
    make = lambda t, cfg: tp_spec(cfg, timeout=t)  # noqa: E731
    first = sweep(runner, (2.0, 5.0), make_spec=make,
                  applications=("mozilla",), checkpoint=path)
    size = path.stat().st_size
    second = sweep(runner, (2.0, 5.0), make_spec=make,
                   applications=("mozilla",), checkpoint=path)
    assert second == first
    assert path.stat().st_size == size
    plain = sweep(runner, (2.0, 5.0), make_spec=make,
                  applications=("mozilla",))
    assert plain == first
    assert first == classic_sweep(runner, (2.0, 5.0), make, ("mozilla",))


def test_run_suite_resilience_reports_failures(small_suite):
    runner = ExperimentRunner(small_suite, SimulationConfig())
    plan = FaultPlan([FaultSpec(site="worker.fail", cell=0, attempts=99)])
    policy = ResiliencePolicy(max_attempts=2, base_delay=0.001)
    with faults.injected(plan):
        with pytest.raises(ExecutionError, match="suite run"):
            runner.run_suite("TP", applications=APPS, policy=policy)


def test_chaos_scenario_partial_suite_bit_identical(small_suite):
    """The acceptance shape: under injected faults the run completes,
    the poisoned cell is a terminal CellFailure with retry history, the
    transiently faulted cell recovers, and every healthy row is
    bit-identical to the classic fault-free reference.  Two predictors
    run fused, one cell per application, so the terminal failure drops
    one whole application row."""
    runner = ExperimentRunner(small_suite, SimulationConfig())
    predictors = ["TP", "PCAP"]
    baseline = classic_matrix(runner, predictors, APPS)
    plan = FaultPlan([
        FaultSpec(site="worker.fail", cell=1, attempts=99),
        FaultSpec(site="worker.fail", cell=0, attempts=1),
    ])
    policy = ResiliencePolicy(max_attempts=2, base_delay=0.001)
    with faults.injected(plan):
        report = runner.run_matrix_resilient(
            predictors, applications=APPS, jobs=1, policy=policy
        )
    assert len(report.ledger.outcomes) == len(APPS)
    (failure,) = report.ledger.failures
    assert failure.cell.index == 1
    assert failure.cell.application == APPS[1]
    assert len(failure.attempts) == 2
    assert not report.complete
    # Cell 0 recovered after its transient fault; cell 1's row is absent.
    assert [e.cell.index for e in report.ledger.retries] == [0, 1, 1]
    assert list(report.matrix) == [APPS[0]]
    healthy = 0
    for application, row in report.matrix.items():
        for name, result in row.items():
            assert result == baseline[application][name]
            healthy += 1
    assert healthy == len(predictors) * (len(APPS) - 1)


# ---------------------------------------------------------------------------
# Checkpoint provenance (run-shape header)
# ---------------------------------------------------------------------------
#
# A provenance header pins a journal to the shape of the run that wrote
# it; a mismatched resume is refused.  The toy headers below use
# arbitrary keys — older matrix journals carried "fused" and
# "variant_set", which matrix runs no longer declare, and those
# journals must keep loading.


def test_provenance_mismatch_refuses_resume(tmp_path):
    path = tmp_path / "prov.ckpt"
    cells = toy_cells(2)
    keys = toy_keys(cells)
    run_cells(cells, toy_record, jobs=1, checkpoint=path, cell_keys=keys,
              provenance={"fused": True, "variant_set": "abc"})
    with pytest.raises(CheckpointError, match="incompatible run"):
        run_cells(cells, toy_record, jobs=1, checkpoint=path,
                  cell_keys=keys,
                  provenance={"fused": False, "variant_set": "abc"})
    with pytest.raises(CheckpointError, match="variant_set"):
        run_cells(cells, toy_record, jobs=1, checkpoint=path,
                  cell_keys=keys,
                  provenance={"fused": True, "variant_set": "other"})


def test_provenance_match_resumes(tmp_path):
    path = tmp_path / "prov-ok.ckpt"
    cells = toy_cells(3)
    keys = toy_keys(cells)
    stamp = {"fused": True, "mode": "global", "variant_set": "abc"}
    calls: list[int] = []

    def counting(cell):
        calls.append(cell.index)
        return toy_record(cell)

    run_cells(cells, counting, jobs=1, checkpoint=path, cell_keys=keys,
              provenance=stamp)
    calls.clear()
    second = run_cells(cells, counting, jobs=1, checkpoint=path,
                       cell_keys=keys, provenance=dict(stamp))
    assert calls == []
    assert second.resumed == 3


def test_provenance_compares_only_shared_keys(tmp_path):
    # A journal written before a new provenance key existed must stay
    # resumable: only keys present in BOTH stamps are compared.
    path = tmp_path / "prov-subset.ckpt"
    cells = toy_cells(1)
    run_cells(cells, toy_record, jobs=1, checkpoint=path,
              cell_keys=toy_keys(cells), provenance={"fused": False})
    ledger = run_cells(
        cells, toy_record, jobs=1, checkpoint=path,
        cell_keys=toy_keys(cells),
        provenance={"fused": False, "mode": "global", "multistate": False},
    )
    assert ledger.resumed == 1


def test_legacy_headerless_journal_resumes(tmp_path):
    # Journals from before the provenance header carry no stamp at all;
    # they resume under any provenance (cell keys still guard entries).
    path = tmp_path / "legacy.ckpt"
    cells = toy_cells(2)
    keys = toy_keys(cells)
    run_cells(cells, toy_record, jobs=1, checkpoint=path, cell_keys=keys)
    restored = CellCheckpoint(path)
    assert restored.provenance is None
    ledger = run_cells(cells, toy_record, jobs=1, checkpoint=path,
                       cell_keys=keys,
                       provenance={"fused": True, "variant_set": "abc"})
    assert ledger.resumed == 2


def test_parent_classic_journal_resumes_under_fused(
    small_suite, tmp_path, monkeypatch
):
    # A journal the per-cell path wrote while it was the default: its
    # header says "fused": false, and it holds one record per
    # (application, predictor).  The fused path journals lanes under
    # the same keys, so a resume restores every cell and re-runs none.
    path = tmp_path / "per-cell.ckpt"
    runner = ExperimentRunner(small_suite, SimulationConfig())
    names = ["TP", "Base"]
    expected = classic_matrix(runner, names, APPS)
    header = {"fused": False, "mode": "global", "multistate": False}
    with CellCheckpoint(path, provenance=header) as journal:
        pairs = [(app, name) for app in APPS for name in names]
        for index, (app, name) in enumerate(pairs):
            journal.record(
                cell_key(runner.fingerprint(app), name, runner.config),
                ExperimentCell(index=index, application=app, predictor=name),
                expected[app][name],
                0.0,
            )

    def refuse(*args, **kwargs):
        raise AssertionError("a journalled cell was re-run")

    monkeypatch.setattr(fused_module, "run_fused_application", refuse)
    monkeypatch.setattr(experiment_module, "run_global_execution", refuse)
    report = runner.run_matrix_resilient(names, applications=APPS,
                                         checkpoint=path)
    assert report.ledger.resumed == len(APPS) * len(names)
    assert not report.ledger.failures
    assert report.matrix == expected


def test_fused_lanes_resume_a_single_predictor_run(
    small_suite, tmp_path, monkeypatch
):
    # The other direction of the shared key scheme: lanes a fused run
    # journalled restore the per-cell run of one of its predictors.
    path = tmp_path / "lanes.ckpt"
    runner = ExperimentRunner(small_suite, SimulationConfig())
    first = runner.run_matrix_resilient(["TP", "Base"], applications=APPS,
                                        checkpoint=path)
    assert len(first.ledger.outcomes) == len(APPS)  # one fused cell per app

    def refuse(*args, **kwargs):
        raise AssertionError("a journalled lane was re-run")

    monkeypatch.setattr(experiment_module, "run_global_execution", refuse)
    report = runner.run_matrix_resilient(["Base"], applications=APPS,
                                         checkpoint=path)
    assert report.ledger.resumed == len(APPS)
    assert report.matrix == {app: {"Base": first.matrix[app]["Base"]}
                             for app in APPS}


def test_parent_fused_journal_loads_and_reruns(small_suite, tmp_path):
    # A journal the opt-in fused path wrote: its header carries "fused"
    # and "variant_set", and its one record per application sits under
    # a key no run derives any more.  It still loads; its cells re-run.
    path = tmp_path / "fused.ckpt"
    runner = ExperimentRunner(small_suite, SimulationConfig())
    header = {"fused": True, "mode": "global", "multistate": False,
              "variant_set": "0123abcd"}
    with CellCheckpoint(path, provenance=header) as journal:
        journal.record(
            cell_key(runner.fingerprint(APPS[0]), "fused:0123abcd",
                     runner.config),
            ExperimentCell(index=0, application=APPS[0], predictor="fused[2]"),
            None,
            0.0,
        )
    report = runner.run_matrix_resilient(["TP", "Base"], applications=APPS,
                                         checkpoint=path)
    assert report.ledger.resumed == 0
    assert report.matrix == classic_matrix(runner, ["TP", "Base"], APPS)


def test_classic_journal_allows_new_predictors(small_suite, tmp_path):
    # The documented classic workflow — add a predictor, resume, only
    # the new cells run — must keep working: classic provenance pins
    # the execution shape, not the predictor list.
    path = tmp_path / "classic.ckpt"
    runner = ExperimentRunner(small_suite, SimulationConfig())
    runner.run_matrix_resilient(["TP"], applications=APPS,
                                checkpoint=path)
    report = runner.run_matrix_resilient(["TP", "Base"], applications=APPS,
                                         checkpoint=path)
    assert report.ledger.resumed == len(APPS)  # the TP cells
    assert not report.ledger.failures


# ---------------------------------------------------------------------------
# One restore rule over the journal and the artifact cache
# ---------------------------------------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("a stored record was re-run")


def test_journal_and_cache_together_restore_every_lane(
    small_suite, tmp_path, monkeypatch
):
    # Half the lanes in the journal, the other half only in the cache:
    # every lane is restored, nothing runs, and the lanes the cache
    # served are journalled, so the journal alone restores them next.
    from repro.sim.artifact_cache import ArtifactCache

    names = ["TP", "Base", "PCAP"]
    expected = classic_matrix(
        ExperimentRunner(small_suite, SimulationConfig()), names, APPS
    )
    path = tmp_path / "half.ckpt"
    cache = ArtifactCache(tmp_path / "cache")
    runner = ExperimentRunner(small_suite, SimulationConfig(),
                              artifact_cache=cache)
    pairs = [(app, name) for app in APPS for name in names]
    with CellCheckpoint(path) as journal:
        for index, (app, name) in enumerate(pairs):
            key = cell_key(runner.fingerprint(app), name, runner.config)
            if index % 2:
                cache.put(key, expected[app][name])
            else:
                journal.record(key, ExperimentCell(index, app, name),
                               expected[app][name], 0.0)
    monkeypatch.setattr(fused_module, "run_fused_application", _refuse)
    monkeypatch.setattr(experiment_module, "run_global_execution", _refuse)
    report = runner.run_matrix_resilient(names, applications=APPS,
                                         checkpoint=path)
    assert report.matrix == expected
    assert (report.ledger.resumed, report.ledger.cached) == (
        len(pairs) // 2, len(pairs) // 2)
    assert CellCheckpoint(path).loaded == len(pairs)
    journal_only = ExperimentRunner(small_suite, SimulationConfig())
    again = journal_only.run_matrix_resilient(names, applications=APPS,
                                              checkpoint=path)
    assert again.ledger.resumed == len(pairs)
    assert again.matrix == expected


@pytest.mark.parametrize("names", [["TP"], ["TP", "Base"]],
                         ids=["per-cell", "fused"])
def test_journal_record_naming_another_application_is_rerun(
    small_suite, tmp_path, names
):
    # xemacs's result under mozilla's key must not be served.
    runner = ExperimentRunner(small_suite, SimulationConfig())
    expected = classic_matrix(runner, names, APPS)
    path = tmp_path / "wrong.ckpt"
    with CellCheckpoint(path) as journal:
        journal.record(
            cell_key(runner.fingerprint(APPS[0]), "TP", runner.config),
            ExperimentCell(index=0, application=APPS[0], predictor="TP"),
            expected[APPS[1]]["TP"],
            0.0,
        )
    report = runner.run_matrix_resilient(names, applications=APPS,
                                         checkpoint=path)
    assert report.ledger.resumed == 0
    assert report.matrix == expected
