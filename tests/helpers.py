"""Shared test helpers: compact constructors for accesses and traces."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.cache.filter import DiskAccess
from repro.traces.events import AccessType, ExitEvent, ForkEvent, IOEvent
from repro.traces.trace import ExecutionTrace


def access(
    time: float,
    pid: int = 100,
    pc: int = 0x1000,
    fd: int = 3,
    kind: AccessType = AccessType.READ,
    inode: int = 7,
    block_count: int = 1,
) -> DiskAccess:
    """A disk access with compact defaults."""
    return DiskAccess(
        time=time,
        pid=pid,
        pc=pc,
        fd=fd,
        kind=kind,
        inode=inode,
        block_count=block_count,
    )


def accesses_at(times: Sequence[float], **kwargs) -> list[DiskAccess]:
    """Accesses at the given times sharing all other fields."""
    return [access(time, **kwargs) for time in times]


def io_event(
    time: float,
    pid: int = 100,
    pc: int = 0x1000,
    fd: int = 3,
    kind: AccessType = AccessType.READ,
    inode: int = 7,
    block_start: int = 0,
    block_count: int = 1,
) -> IOEvent:
    return IOEvent(
        time=time,
        pid=pid,
        pc=pc,
        fd=fd,
        kind=kind,
        inode=inode,
        block_start=block_start,
        block_count=block_count,
    )


def single_process_execution(
    times_and_pcs: Iterable[tuple[float, int]],
    *,
    application: str = "app",
    execution_index: int = 0,
    pid: int = 100,
    end_time: float | None = None,
    fresh_blocks: bool = True,
) -> ExecutionTrace:
    """An execution with one process reading at given (time, pc) points.

    With ``fresh_blocks`` every event reads a distinct block so the cache
    filter passes everything through to the disk.
    """
    events: list = []
    for index, (time, pc) in enumerate(times_and_pcs):
        events.append(
            io_event(
                time,
                pid=pid,
                pc=pc,
                block_start=1000 + execution_index * 100000 + index * 4,
                block_count=1 if fresh_blocks else 0,
            )
        )
    if end_time is not None:
        events.append(ExitEvent(time=end_time, pid=pid))
    execution = ExecutionTrace.from_events(
        application=application,
        execution_index=execution_index,
        events=events,
        initial_pids=frozenset({pid}),
    ).sorted()
    execution.validate()
    return execution


def two_process_execution(
    main_events: Iterable[tuple[float, int]],
    helper_events: Iterable[tuple[float, int]],
    *,
    application: str = "app",
    fork_time: float = 0.01,
    end_time: float = 1000.0,
) -> ExecutionTrace:
    """Main pid 100 plus helper pid 101 forked at ``fork_time``."""
    events: list = [ForkEvent(time=fork_time, pid=101, parent_pid=100)]
    for index, (time, pc) in enumerate(main_events):
        events.append(
            io_event(time, pid=100, pc=pc, block_start=10_000 + index * 4)
        )
    for index, (time, pc) in enumerate(helper_events):
        events.append(
            io_event(time, pid=101, pc=pc, block_start=90_000 + index * 4)
        )
    events.append(ExitEvent(time=end_time - 0.002, pid=101))
    events.append(ExitEvent(time=end_time, pid=100))
    execution = ExecutionTrace.from_events(
        application=application,
        execution_index=0,
        events=events,
        initial_pids=frozenset({100}),
    ).sorted()
    execution.validate()
    return execution


# ---------------------------------------------------------------------------
# Classic references: one run_global call per (application, variant)
# ---------------------------------------------------------------------------


def classic_matrix(runner, names, applications=None):
    """``{application: {name: result}}`` from one ``run_global`` per
    cell — the per-cell reference every fused matrix must equal."""
    apps = list(applications) if applications else runner.applications
    return {
        app: {name: runner.run_global(app, name) for name in names}
        for app in apps
    }


def classic_sweep(runner, values, make_spec, applications=None):
    """Sweep points folded from one ``run_global`` per (value,
    application) plus one Base run per application, in the fold order
    of :func:`repro.sim.sweep.sweep` — its per-cell reference."""
    from repro.sim.metrics import PredictionStats
    from repro.sim.sweep import SweepPoint

    apps = list(applications) if applications else runner.applications
    base = {app: runner.run_global(app, "Base") for app in apps}
    points = []
    for value in values:
        stats = PredictionStats()
        energy = base_energy = 0.0
        shutdowns = delayed = irritating = accesses = 0
        for app in apps:
            result = runner.run_global(app, make_spec(value, runner.config))
            stats.merge(result.stats)
            energy += result.energy
            shutdowns += result.shutdowns
            delayed += result.delayed_requests
            irritating += result.irritating_delays
            accesses += result.total_disk_accesses
            base_energy += base[app].energy
        points.append(SweepPoint(
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
        ))
    return points
