"""The trace-driven simulation engine (paper §6).

Three entry points:

* :func:`evaluate_local_stream` — drive one predictor over one process's
  own disk-access stream and score it (the *local* evaluation of
  Figure 6);
* :func:`run_global_execution` — replay one execution's merged disk
  stream against the system-wide predictor (Global Shutdown Predictor
  over per-process locals, or an omniscient Ideal/Base policy), driving
  the simulated disk for energy accounting (Figures 7–10).  This is the
  readable reference every fused lane is checked against, and the
  tracing, multistate and serve path;
* :func:`build_replay_tape` — one sequential pass over an execution's
  merged schedule that records the predictor-independent part of
  :func:`run_global_execution` as a :class:`ReplayTape`, which the
  fused kernel (:mod:`repro.sim.fused`) replays once per predictor.

Decision semantics: after each access a process's predictor leaves a
standing :class:`~repro.predictors.base.ShutdownIntent`; the disk is shut
down at the earliest instant all live processes' intents are ready,
provided no request arrives first.  A shutdown's hit/miss classification
is energy-principled (see :mod:`repro.sim.metrics`).

Hot-path structure: the engine consumes the columnar view of the
filtered stream (:mod:`repro.sim.columnar`) — per-access service
durations are evaluated vectorized once per (stream × service-time
configuration) and the merged event schedule is memoized per
(execution × filter result) — and the replay loops bind every method and
counter they touch to locals, with the tracer guard hoisted so untraced
runs never test per-event.  All of this is observationally invisible:
results are bit-identical to the row-oriented implementation (see
DESIGN.md, "columnar bit-identity contract").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.global_predictor import GlobalShutdownPredictor
from repro.disk.disk import SimulatedDisk
from repro.disk.multistate import MultiStateDisk
from repro.disk.energy import EnergyBreakdown
from repro.errors import SimulationError
from repro.predictors.base import (
    IdleFeedback,
    LocalPredictor,
    PredictorSource,
    ShutdownIntent,
    classify_gap,
)
from repro.predictors.registry import PredictorSpec
from repro.config import SimulationConfig
from repro.sim.metrics import PredictionStats
from repro.sim.tracing import (
    AccessServed,
    ShutdownCancelled,
    ShutdownFired,
    ShutdownScheduled,
    Tracer,
    UnknownPidRegistered,
    WaitWindowExpired,
)
from repro.traces.events import ExitEvent, ForkEvent
from repro.traces.trace import ExecutionLike
from repro.units import EPSILON

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.filter import DiskAccess, FilterResult

_EPS = EPSILON


def _emit_fired(
    tracer: Tracer,
    gap_start: float,
    gap_length: float,
    offset: float,
    source: PredictorSource,
    breakeven: float,
) -> None:
    """Emit a shutdown-fired event classified exactly like the stats."""
    tracer.emit(
        ShutdownFired(
            time=gap_start + offset,
            offset=offset,
            gap_length=gap_length,
            source=source.value,
            hit=gap_length - offset > breakeven + _EPS,
        )
    )


def _resolve_shutdown(
    intent: ShutdownIntent, gap_length: float
) -> tuple[Optional[float], Optional[PredictorSource]]:
    """Offset at which a standing intent fires within a gap, if it does."""
    if intent.delay is None or intent.delay >= gap_length - _EPS:
        return None, None
    return intent.delay, intent.source


def merged_schedule(
    execution: ExecutionLike, filtered: FilterResult
) -> list[tuple[float, int, object, int]]:
    """The global engine's replay schedule, memoized on ``filtered``.

    Liveness events merge with the filtered disk accesses as
    ``(time, rank, payload, access_index)`` entries; ranks make forks
    precede accesses which precede exits at identical times (ties keep
    stream order — the sort is stable).  ``access_index`` is the access's
    position in ``filtered.accesses`` (``-1`` for liveness events), which
    is how the replay loop finds its precomputed service duration.

    The schedule depends only on the (execution, filter result) pair —
    not on the predictor or the simulation configuration — so replaying
    the same execution under many predictors or sweep points reuses it.
    """
    memo = filtered._schedule
    if memo is not None and memo[0] is execution:
        return memo[1]
    entries: list[tuple[float, int, object, int]] = []
    for event in execution.liveness_events():
        if isinstance(event, ForkEvent):
            entries.append((event.time, 0, event, -1))
        elif isinstance(event, ExitEvent):
            entries.append((event.time, 2, event, -1))
    for index, access in enumerate(filtered.accesses):
        entries.append((access.time, 1, access, index))
    entries.sort(key=lambda item: (item[0], item[1]))
    filtered._schedule = (execution, entries)
    return entries


# ---------------------------------------------------------------------------
# Shared replay tape (the fused multi-predictor kernel's front end).
#
# Requests are serialized but never stretch the timeline (spin-up latency
# is energy-only — see repro.disk.disk), so the whole busy/gap structure
# of an execution — disk busy intervals, gap boundaries, per-process idle
# feedback, liveness, window starts, the busy-energy sum — is a function
# of the (execution, filter result, configuration) triple alone and is
# *identical under every predictor*.  ``build_replay_tape`` factors that
# predictor-independent skeleton out of the replay loop below into a
# :class:`ReplayTape` of per-step tuples that :mod:`repro.sim.fused`
# replays once per predictor variant, touching only the per-variant
# state (predictor instances, standing intents, the pending shutdown,
# stats and gap energy).  Every boundary predicate and every float
# expression matches the classic loop exactly, which is what makes fused
# results bit-identical.
# ---------------------------------------------------------------------------

#: Replay-tape opcodes: the first element of every :class:`ReplayTape`
#: step view.
TAPE_SIMPLE = 0  #: access with no actionable gap (back-to-back or <= EPS)
TAPE_GAP = 1  #: access ending a gap a shutdown could fire in
TAPE_FORK = 2  #: process fork (liveness + try-point)
TAPE_EXIT = 3  #: process exit (liveness + trailing feedback + try-point)


@dataclass(slots=True)
class ReplayTape:
    """The predictor-independent replay skeleton of one execution.

    ``views`` holds one tuple per merged-schedule step, in schedule
    order, except that runs of consecutive :data:`TAPE_SIMPLE` steps are
    grouped into one ``(TAPE_SIMPLE, items)`` entry, ``items`` being
    ``(pid, access, feedback, busy_after, register, idle_full)`` tuples,
    so the lanes dispatch once per run instead of once per access.  The
    other steps are:

    * ``(TAPE_GAP, time, can_fire, record, window_start, busy_until,
      gap_length, idle_full, long_period, gap_end, busy_after, register,
      pid, feedback, access, anchor_max)``;
    * ``(TAPE_FORK, time, can_fire, window_start, busy_until, pid,
      is_new, anchor_max)``;
    * ``(TAPE_EXIT, time, can_fire, window_start, busy_until, pid,
      feedback, anchor_max)``.

    ``can_fire`` and ``record`` are the engine's try-shutdown gate and
    its stats gate; ``window_start`` and ``busy_until`` the decision
    window and disk-busy state entering the step; ``idle_full`` the
    no-shutdown idle energy of the resolved gap; ``register`` marks an
    access by an unregistered pid; ``feedback`` is the per-process
    :class:`~repro.predictors.base.IdleFeedback` delivered at the step,
    or ``None``; ``anchor_max`` is the latest live intent anchor at the
    step's try-point, ``None`` when the step cannot fire or no process
    is live.

    The scalars carry the whole-execution state: the busy-energy sum,
    the access count and the trailing gap after the last step.
    """

    views: list
    start: float
    end: float
    initial_pids: tuple[int, ...]
    busy_energy: float
    n_accesses: int
    end_can_fire: bool
    end_record: bool
    trailing: float
    final_window_start: float
    final_busy_until: float
    final_gap_end: float
    final_idle_full: float
    final_long: bool
    final_anchor_max: Optional[float]


def _feedback(
    start: float, end: float, wait_window: float, breakeven: float
) -> Optional[IdleFeedback]:
    """The idle feedback a process receives for the gap ``start``–``end``,
    behind the 1e-9 delivery gate of
    :class:`~repro.core.global_predictor.GlobalShutdownPredictor`."""
    length = end - start
    if length > 1e-9:
        return IdleFeedback(
            start=start,
            end=end,
            idle_class=classify_gap(length, wait_window, breakeven),
        )
    return None


def build_replay_tape(
    execution: ExecutionLike,
    filtered: FilterResult,
    config: SimulationConfig,
) -> ReplayTape:
    """Build the shared replay skeleton of one execution (see
    :class:`ReplayTape`).

    One pass over the merged schedule, mirroring ``_run_local_based`` +
    :class:`~repro.disk.disk.SimulatedDisk` expression for expression,
    assembles the lanes' step views from ``filtered.accesses``."""
    schedule = merged_schedule(execution, filtered)
    durations = filtered.columnar().durations_list(config)
    params = config.disk
    busy_power = params.busy_power
    idle_power = params.idle_power
    breakeven = config.breakeven
    wait_window = config.wait_window
    start, end = execution.start_time, execution.end_time

    views: list = []
    views_append = views.append
    simple_run: Optional[list] = None
    busy_until = start
    window_start = start
    busy_energy = 0.0
    # pid -> intent anchor: slot creation time, then last access
    # completion (doubles as the per-process feedback gap start).
    anchors: dict[int, float] = {}
    initial_pids = tuple(execution.initial_pids)
    for pid in initial_pids:
        anchors[pid] = start

    for time, rank, payload, index in schedule:
        if rank == 1:
            pid = payload.pid
            duration = durations[index]
            can_fire = time > busy_until + _EPS
            gap_length = time - busy_until
            record = gap_length > _EPS
            register = pid not in anchors
            feedback = (
                None
                if register
                else _feedback(anchors[pid], time, wait_window, breakeven)
            )
            if time < busy_until - _EPS:
                # Back-to-back: serialized behind the current request,
                # no gap resolution.
                if can_fire or record:  # pragma: no cover - contradiction
                    raise SimulationError("gap inside a busy interval")
                busy_after = busy_until + duration
            else:
                busy_after = time + duration
            gap_end = time if time > busy_until else busy_until
            rel = gap_end - busy_until
            idle_full = idle_power * rel
            if can_fire or record:
                simple_run = None
                views_append(
                    (TAPE_GAP, time, can_fire, record, window_start,
                     busy_until, gap_length, idle_full, rel > breakeven,
                     gap_end, busy_after, register, pid, feedback,
                     payload,
                     max(anchors.values()) if (can_fire and anchors)
                     else None)
                )
            else:
                item = (
                    pid, payload, feedback, busy_after, register,
                    idle_full,
                )
                if simple_run is None:
                    simple_run = [item]
                    views_append((TAPE_SIMPLE, simple_run))
                else:
                    simple_run.append(item)
            anchors[pid] = busy_after
            busy_energy += busy_power * duration
            busy_until = busy_after
            window_start = busy_until
        elif rank == 0:
            pid = payload.pid
            can_fire = time > busy_until + _EPS
            is_new = pid not in anchors
            simple_run = None
            views_append(
                (TAPE_FORK, time, can_fire, window_start, busy_until,
                 pid, is_new,
                 max(anchors.values()) if (can_fire and anchors) else None)
            )
            if is_new:
                anchors[pid] = time
            if time > window_start:
                window_start = time
        else:
            pid = payload.pid
            anchor = anchors.get(pid)
            if anchor is None:
                raise SimulationError(f"exit of unknown pid {pid}")
            can_fire = time > busy_until + _EPS
            # The try-point precedes the exit: the decision still spans
            # the exiting process, so its anchor is part of the max.
            anchor_max = (
                max(anchors.values()) if (can_fire and anchors) else None
            )
            del anchors[pid]
            simple_run = None
            views_append(
                (TAPE_EXIT, time, can_fire, window_start, busy_until,
                 pid, _feedback(anchor, time, wait_window, breakeven),
                 anchor_max)
            )
            if time > window_start:
                window_start = time

    # Trailing gap: the final try-point and the finalize ledger's gap.
    end_can_fire = end > busy_until + _EPS
    trailing = end - busy_until
    gap_end = end if end > busy_until else busy_until
    return ReplayTape(
        views=views,
        start=start,
        end=end,
        initial_pids=initial_pids,
        busy_energy=busy_energy,
        n_accesses=len(filtered.accesses),
        end_can_fire=end_can_fire,
        end_record=trailing > _EPS,
        trailing=trailing,
        final_window_start=window_start,
        final_busy_until=busy_until,
        final_gap_end=gap_end,
        final_idle_full=idle_power * (gap_end - busy_until),
        final_long=gap_end - busy_until > breakeven,
        final_anchor_max=(
            max(anchors.values()) if (end_can_fire and anchors) else None
        ),
    )


def evaluate_local_stream(
    accesses: Sequence[DiskAccess],
    predictor: LocalPredictor,
    config: SimulationConfig,
    *,
    start_time: float,
    end_time: float,
    tracer: Optional[Tracer] = None,
) -> PredictionStats:
    """Score ``predictor`` over one process's disk-access stream.

    The stream is the process's own accesses; gaps include the leading
    (process start → first access) and trailing (last access → process
    end) idle periods.  With a ``tracer`` the predictor's decision events
    (signature lookups, training) and every fired shutdown are emitted.
    """
    if end_time < start_time:
        raise SimulationError("stream ends before it starts")
    stats = PredictionStats()
    breakeven = config.breakeven
    wait_window = config.wait_window
    traced = tracer is not None
    if traced:
        predictor.bind_tracing(
            tracer, accesses[0].pid if accesses else 0
        )
    predictor.begin_execution(start_time)
    intent = predictor.initial_intent(start_time)
    busy_end = start_time
    # Hot loop: the service-duration formula and every callback are bound
    # to locals; the arithmetic matches config.access_duration exactly.
    service = config.service_time
    per_block = config.service_time_per_block
    record_gap = stats.record_gap
    on_access = predictor.on_access
    on_idle_end = predictor.on_idle_end
    for access in accesses:
        time = access.time
        if time > busy_end + _EPS:
            gap_length = time - busy_end
            delay = intent.delay
            if delay is None or delay >= gap_length - _EPS:
                record_gap(gap_length, None, None, breakeven)
            else:
                record_gap(gap_length, delay, intent.source, breakeven)
                if traced:
                    _emit_fired(
                        tracer, busy_end, gap_length, delay, intent.source,
                        breakeven,
                    )
            on_idle_end(
                IdleFeedback(
                    start=busy_end,
                    end=time,
                    idle_class=classify_gap(
                        gap_length, wait_window, breakeven
                    ),
                )
            )
        intent = on_access(access)
        if time > busy_end:
            busy_end = time
        busy_end += service + per_block * access.block_count
    if end_time > busy_end + _EPS:
        gap_length = end_time - busy_end
        offset, source = _resolve_shutdown(intent, gap_length)
        record_gap(gap_length, offset, source, breakeven)
        if traced and offset is not None:
            assert source is not None
            _emit_fired(
                tracer, busy_end, gap_length, offset, source, breakeven
            )
        # Trailing idle period trains too (the table is saved at exit).
        on_idle_end(
            IdleFeedback(
                start=busy_end,
                end=end_time,
                idle_class=classify_gap(
                    gap_length, wait_window, breakeven
                ),
            )
        )
    predictor.end_execution(end_time)
    return stats


@dataclass(slots=True)
class ExecutionRunResult:
    """Outcome of one execution under one predictor."""

    stats: PredictionStats
    ledger: EnergyBreakdown
    shutdowns: int
    disk_accesses: int
    #: Requests that waited for a spin-up, the seconds they waited, and
    #: how many of those waits hit an actively-working user (off-window
    #: below breakeven) — the paper's user-irritation argument.
    delayed_requests: int = 0
    delay_seconds: float = 0.0
    irritating_delays: int = 0


def run_global_execution(
    execution: ExecutionLike,
    filtered: FilterResult,
    spec: PredictorSpec,
    config: SimulationConfig,
    *,
    multistate: bool = False,
    tracer: Optional[Tracer] = None,
) -> ExecutionRunResult:
    """Replay one execution's merged disk stream under ``spec``.

    ``filtered`` must be the cache-filtered view of ``execution``.  The
    spec's shared state (prediction table, learning tree) carries over
    between calls — that is how table reuse across executions works; the
    caller invokes ``spec.on_execution_end()`` after each execution.

    With ``multistate`` (the paper's §7 extension) the drive drops into
    its low-power idle state as soon as every live process predicts an
    eventual shutdown, then spins down when the combined decision fires —
    "the sliding wait-window can be optimized to put the disk into a
    lower power state immediately".
    """
    if spec.is_omniscient:
        return _run_omniscient(execution, filtered, spec, config, tracer=tracer)
    return _run_local_based(
        execution, filtered, spec, config, multistate=multistate, tracer=tracer
    )


def _run_omniscient(
    execution: ExecutionLike,
    filtered: FilterResult,
    spec: PredictorSpec,
    config: SimulationConfig,
    *,
    tracer: Optional[Tracer] = None,
) -> ExecutionRunResult:
    policy = spec.omniscient
    assert policy is not None
    breakeven = config.breakeven
    start, end = execution.start_time, execution.end_time
    disk = SimulatedDisk(config.disk, start_time=start, tracer=tracer)
    stats = PredictionStats()
    traced = tracer is not None
    accesses = filtered.accesses
    columnar = filtered.columnar()
    times = columnar.times_list()
    durations = columnar.durations_list(config)
    serve = disk.serve
    record_gap = stats.record_gap
    shutdown_offset = policy.shutdown_offset
    schedule_shutdown = disk.schedule_shutdown
    busy_until = disk.busy_until

    def handle_gap(gap_length: float) -> None:
        offset = shutdown_offset(gap_length)
        if offset is not None and offset < gap_length - _EPS:
            schedule_shutdown(busy_until + offset)
            record_gap(
                gap_length, offset, PredictorSource.PRIMARY, breakeven
            )
            if traced:
                tracer.emit(
                    ShutdownScheduled(
                        time=busy_until + offset,
                        source=PredictorSource.PRIMARY.value,
                    )
                )
                _emit_fired(
                    tracer,
                    busy_until,
                    gap_length,
                    offset,
                    PredictorSource.PRIMARY,
                    breakeven,
                )
        else:
            record_gap(gap_length, None, None, breakeven)

    for index in range(len(times)):
        time = times[index]
        gap_length = time - busy_until
        if gap_length > _EPS:
            handle_gap(gap_length)
        serve(time, durations[index])
        busy_until = disk.busy_until
        if traced:
            access = accesses[index]
            tracer.emit(
                AccessServed(
                    time=access.time,
                    pid=access.pid,
                    pc=access.pc,
                    block_count=access.block_count,
                    busy_until=busy_until,
                )
            )
    trailing = end - busy_until
    if trailing > _EPS:
        handle_gap(trailing)
    disk.finalize(end)
    return ExecutionRunResult(
        stats=stats,
        ledger=disk.ledger,
        shutdowns=disk.shutdown_count,
        disk_accesses=len(accesses),
        delayed_requests=disk.delayed_requests,
        delay_seconds=disk.delay_seconds,
        irritating_delays=disk.irritating_delays,
    )


def _run_local_based(
    execution: ExecutionLike,
    filtered: FilterResult,
    spec: PredictorSpec,
    config: SimulationConfig,
    *,
    multistate: bool = False,
    tracer: Optional[Tracer] = None,
) -> ExecutionRunResult:
    assert spec.local_factory is not None
    breakeven = config.breakeven
    start, end = execution.start_time, execution.end_time
    disk: SimulatedDisk
    if multistate:
        disk = MultiStateDisk(config.disk, start_time=start, tracer=tracer)
    else:
        disk = SimulatedDisk(config.disk, start_time=start, tracer=tracer)
    stats = PredictionStats()
    combiner = GlobalShutdownPredictor(
        spec.local_factory,
        wait_window=config.wait_window,
        breakeven=breakeven,
        tracer=tracer,
    )
    for pid in execution.initial_pids:
        combiner.process_started(start, pid)

    schedule = merged_schedule(execution, filtered)
    durations = filtered.columnar().durations_list(config)

    traced = tracer is not None
    serve = disk.serve
    schedule_shutdown = disk.schedule_shutdown
    record_gap = stats.record_gap
    on_access = combiner.on_access
    is_live = combiner.is_live
    process_started = combiner.process_started
    process_exited = combiner.process_exited
    decision_fn = combiner.decision

    # The current gap: starts at disk.busy_until after each access.
    # ``window_start`` is the start of the sub-interval during which the
    # current global decision has been stable (liveness changes reset it).
    # ``busy_until`` mirrors disk.busy_until (refreshed after each serve).
    window_start = start
    busy_until = disk.busy_until
    pending: Optional[tuple[float, PredictorSource]] = None
    low_power_entered = False

    def try_shutdown(limit: float) -> None:
        """Fire the global decision inside [window_start, limit) if ready."""
        nonlocal pending, low_power_entered
        if pending is not None or limit <= busy_until + _EPS:
            return
        decision = decision_fn()
        if decision is None:
            return
        if multistate and not low_power_entered:
            entry = max(window_start, busy_until)
            if entry < limit - _EPS:
                assert isinstance(disk, MultiStateDisk)
                disk.enter_low_power(entry)
                low_power_entered = True
        fire_at = max(window_start, decision.ready_time, busy_until)
        if fire_at < limit - _EPS:
            schedule_shutdown(fire_at)
            pending = (fire_at, decision.source)
            if traced:
                tracer.emit(
                    WaitWindowExpired(
                        time=fire_at, source=decision.source.value
                    )
                )
                tracer.emit(
                    ShutdownScheduled(
                        time=fire_at, source=decision.source.value
                    )
                )

    for time, rank, payload, index in schedule:
        if rank == 1:
            access = payload
            try_shutdown(time)
            gap_start = busy_until
            gap_length = time - gap_start
            if (
                traced
                and pending is None
                and gap_length > _EPS
                and decision_fn() is not None
            ):
                # A standing global decision existed in this gap but the
                # arrival beat the wait-window / ready time: cancelled.
                tracer.emit(
                    ShutdownCancelled(time=time, reason="wait-window")
                )
            serve(time, durations[index])
            busy_until = disk.busy_until
            if traced:
                tracer.emit(
                    AccessServed(
                        time=time,
                        pid=access.pid,
                        pc=access.pc,
                        block_count=access.block_count,
                        busy_until=busy_until,
                    )
                )
            if gap_length > _EPS:
                if pending is not None:
                    offset = pending[0] - gap_start
                    record_gap(gap_length, offset, pending[1], breakeven)
                    if traced:
                        _emit_fired(
                            tracer,
                            gap_start,
                            gap_length,
                            offset,
                            pending[1],
                            breakeven,
                        )
                else:
                    record_gap(gap_length, None, None, breakeven)
            if not is_live(access.pid):
                # A pid the trace never introduced (fork unobserved, or
                # absent from initial_pids): register it on the spot so
                # its accesses still feed predictor state instead of
                # silently dropping the update.
                if traced:
                    tracer.emit(
                        UnknownPidRegistered(time=time, pid=access.pid)
                    )
                process_started(time, access.pid)
            on_access(access, busy_until)
            pending = None
            low_power_entered = False
            window_start = busy_until
        elif rank == 0:
            try_shutdown(time)
            # The pid may already be live if an access preceded the fork
            # record (fork observed late) and registered it above.
            if not is_live(payload.pid):
                process_started(time, payload.pid)
            if time > window_start:
                window_start = time
        else:
            try_shutdown(time)
            process_exited(time, payload.pid)
            if time > window_start:
                window_start = time

    try_shutdown(end)
    trailing = end - busy_until
    gap_start = busy_until
    if trailing > _EPS:
        if pending is not None:
            record_gap(trailing, pending[0] - gap_start, pending[1], breakeven)
            if traced:
                _emit_fired(
                    tracer,
                    gap_start,
                    trailing,
                    pending[0] - gap_start,
                    pending[1],
                    breakeven,
                )
        else:
            record_gap(trailing, None, None, breakeven)
    disk.finalize(end)
    return ExecutionRunResult(
        stats=stats,
        ledger=disk.ledger,
        shutdowns=disk.shutdown_count,
        disk_accesses=len(filtered.accesses),
        delayed_requests=disk.delayed_requests,
        delay_seconds=disk.delay_seconds,
        irritating_delays=disk.irritating_delays,
    )
