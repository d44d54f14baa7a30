"""run_global_execution: merged streams, liveness, energy accounting."""

import pytest

from repro.cache.filter import DiskAccess, FilterResult
from repro.config import SimulationConfig
from repro.predictors.registry import make_spec
from repro.sim.engine import run_global_execution
from repro.traces.events import AccessType, ExitEvent, ForkEvent
from repro.traces.trace import ExecutionTrace
from tests.helpers import access, io_event


@pytest.fixture(scope="module")
def config():
    return SimulationConfig()


def _execution_and_accesses(
    points, *, end_time, pids=(100,), forks=(), exits=()
):
    """Build an execution plus a matching pre-filtered access list.

    ``points`` are (time, pid, pc) disk accesses.  The execution's event
    list carries matching IOEvents (content irrelevant — the engine reads
    the FilterResult) plus the liveness events.
    """
    events = list(forks)
    for time, pid, pc in points:
        events.append(io_event(time, pid=pid, pc=pc, block_start=int(time * 1000)))
    events.extend(exits)
    execution = ExecutionTrace.from_events(
        "app", 0, events, initial_pids=frozenset(pids)
    ).sorted()
    accesses = [access(time, pid=pid, pc=pc) for time, pid, pc in points]
    accesses.sort(key=lambda a: a.time)
    filtered = FilterResult(
        application="app", execution_index=0, accesses=accesses
    )
    return execution, filtered


def test_base_never_shuts_down(config):
    execution, filtered = _execution_and_accesses(
        [(0.0, 100, 1), (100.0, 100, 1)], end_time=100.0,
        exits=[ExitEvent(time=100.0, pid=100)],
    )
    result = run_global_execution(
        execution, filtered, make_spec("Base", config), config
    )
    assert result.shutdowns == 0
    assert result.stats.opportunities == 1
    assert result.ledger.power_cycle == 0.0


def test_oracle_hits_every_opportunity(config):
    execution, filtered = _execution_and_accesses(
        [(0.0, 100, 1), (50.0, 100, 1), (53.0, 100, 1), (120.0, 100, 1)],
        end_time=120.0, exits=[ExitEvent(time=120.0, pid=100)],
    )
    result = run_global_execution(
        execution, filtered, make_spec("Ideal", config), config
    )
    assert result.stats.opportunities == 2
    assert result.stats.hits_primary == 2
    assert result.stats.misses == 0


def test_oracle_uses_less_energy_than_base(config):
    points = [(0.0, 100, 1), (60.0, 100, 1), (130.0, 100, 1)]
    exits = [ExitEvent(time=130.0, pid=100)]
    execution, filtered = _execution_and_accesses(
        points, end_time=130.0, exits=exits
    )
    base = run_global_execution(
        execution, filtered, make_spec("Base", config), config
    )
    execution, filtered = _execution_and_accesses(
        points, end_time=130.0, exits=exits
    )
    oracle = run_global_execution(
        execution, filtered, make_spec("Ideal", config), config
    )
    assert oracle.ledger.total < base.ledger.total


def test_tp_global_waits_for_all_processes(config):
    """Process 2's access restarts only its own timer; the disk shuts
    down 10 s after the LAST process's access (§5's example)."""
    forks = [ForkEvent(time=0.0, pid=101, parent_pid=100)]
    exits = [ExitEvent(time=100.0, pid=101), ExitEvent(time=100.0, pid=100)]
    execution, filtered = _execution_and_accesses(
        [(1.0, 100, 1), (5.0, 101, 2)],
        end_time=100.0, forks=forks, exits=exits,
    )
    result = run_global_execution(
        execution, filtered, make_spec("TP", config), config
    )
    # One merged gap from 5.0+service to 100; shutdown at 5.0+svc+10.
    assert result.shutdowns == 1
    assert result.stats.hits_primary == 1


def test_never_intent_blocks_until_exit(config):
    """An EXP predictor that never predicts blocks the global shutdown;
    after its process exits, remaining processes decide."""
    forks = [ForkEvent(time=0.0, pid=101, parent_pid=100)]
    exits = [ExitEvent(time=30.0, pid=101), ExitEvent(time=200.0, pid=100)]
    execution, filtered = _execution_and_accesses(
        [(1.0, 100, 1), (2.0, 101, 2)],
        end_time=200.0, forks=forks, exits=exits,
    )
    # EXP starts predicting 0 idle -> never shuts down; pid 101's EXP
    # blocks until it exits at t=30, then pid 100's EXP still never
    # predicts... use TP for main via mixed spec is overkill; just check
    # EXP yields no shutdowns while both live.
    result = run_global_execution(
        execution, filtered, make_spec("EXP", config), config
    )
    assert result.shutdowns == 0


def test_fork_mid_gap_delays_shutdown(config):
    """A fork inside an idle gap adds a process whose initial intent
    (backup-less TP primary timer) pushes the global ready time out."""
    forks = [ForkEvent(time=5.0, pid=101, parent_pid=100)]
    exits = [ExitEvent(time=100.0, pid=101), ExitEvent(time=100.0, pid=100)]
    execution, filtered = _execution_and_accesses(
        [(0.0, 100, 1)], end_time=100.0, forks=forks, exits=exits,
    )
    result = run_global_execution(
        execution, filtered, make_spec("TP", config), config
    )
    # Main ready at ~10.0, but the fork at 5.0 arms a fresh 10 s timer:
    # shutdown at ~15.0; still one hit.
    assert result.shutdowns == 1
    assert result.stats.hits_primary == 1
    # Energy: idle until 15.0 then standby — check the idle portion
    # exceeds 15 s worth at idle power minus epsilon.
    assert result.ledger.idle_long >= config.disk.idle_power * 14.9


def test_flush_access_from_dead_pid_served_without_predictor(config):
    exits = [ExitEvent(time=10.0, pid=100)]
    execution, filtered = _execution_and_accesses(
        [(1.0, 100, 1)], end_time=10.0, exits=exits,
    )
    # Inject a kernel flush attributed to the (now dead) pid after exit.
    filtered.accesses.append(
        DiskAccess(
            time=10.0, pid=100, pc=0xFFFF0000, fd=-1,
            kind=AccessType.FLUSH, inode=1,
        )
    )
    result = run_global_execution(
        execution, filtered, make_spec("TP", config), config
    )
    assert result.disk_accesses == 2  # served without raising


def test_stats_and_ledger_consistency(config):
    """Shutdown count from stats equals the disk's shutdown counter."""
    points = [(0.0, 100, 1), (40.0, 100, 1), (90.0, 100, 1)]
    exits = [ExitEvent(time=90.0, pid=100)]
    execution, filtered = _execution_and_accesses(
        points, end_time=90.0, exits=exits
    )
    result = run_global_execution(
        execution, filtered, make_spec("TP", config), config
    )
    assert result.stats.shutdowns == result.shutdowns


def test_energy_conservation_against_closed_form(config):
    """Base-system energy equals busy + idle computed by hand."""
    points = [(0.0, 100, 1), (20.0, 100, 1)]
    exits = [ExitEvent(time=30.0, pid=100)]
    execution, filtered = _execution_and_accesses(
        points, end_time=30.0, exits=exits
    )
    result = run_global_execution(
        execution, filtered, make_spec("Base", config), config
    )
    service = config.access_duration(1)
    busy = 2 * service * config.disk.busy_power
    idle = (30.0 - 2 * service) * config.disk.idle_power
    assert result.ledger.total == pytest.approx(busy + idle)


def test_access_from_unregistered_pid_feeds_predictor(config):
    """Regression: an access whose pid the trace never introduced (fork
    unobserved / absent from initial_pids) must register the pid and
    feed its predictor instead of silently dropping the update."""
    from repro.sim.tracing import TraceRecorder

    execution, filtered = _execution_and_accesses(
        [(0.0, 100, 1), (5.0, 200, 2), (80.0, 200, 2), (100.0, 100, 1)],
        end_time=100.0, pids=(100,),
    )
    recorder = TraceRecorder()
    result = run_global_execution(
        execution, filtered, make_spec("TP", config), config,
        tracer=recorder,
    )
    unknown = [e for e in recorder.events if e.kind == "unknown-pid"]
    assert [e.pid for e in unknown] == [200]
    # Pid 200's standing timeout intent now gates the global decision:
    # the shutdown in the 5->80 gap fires ~10 s after *its* access (t~15),
    # not ~10 s after pid 100's earlier one.
    fired = [e for e in recorder.events if e.kind == "shutdown-fired"]
    assert fired, "expected a shutdown in the long gap"
    assert fired[0].time == pytest.approx(15.0, abs=0.1)
    assert result.stats.shutdowns == len(fired)


def test_fork_observed_after_first_access(config):
    """A fork record arriving after the pid's first access (out-of-order
    capture) must not crash on double registration."""
    execution, filtered = _execution_and_accesses(
        [(0.0, 100, 1), (5.0, 200, 2), (100.0, 100, 1)],
        end_time=100.0, pids=(100,),
        forks=[ForkEvent(time=6.0, pid=200, parent_pid=100)],
        exits=[ExitEvent(time=100.0, pid=100)],
    )
    result = run_global_execution(
        execution, filtered, make_spec("TP", config), config
    )
    assert result.disk_accesses == 3
