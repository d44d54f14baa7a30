"""Fused single-pass multi-predictor simulation kernel.

The classic experiment decomposition runs one full trace replay per
(application × predictor variant) cell — O(variants × trace) work for
O(trace) information, since the paper's comparisons (Figs. 6–9,
Table 3) pit every predictor against the *same* idle-period stream.
This module evaluates all registered predictor specs in one streaming
pass per application:

1. :func:`repro.sim.engine.build_replay_tape` walks each execution's
   merged schedule **once**, producing the predictor-independent replay
   skeleton (gap boundaries, busy intervals, per-process idle feedback,
   liveness, try-points, the shared busy-energy sum) as a
   :class:`~repro.sim.engine.ReplayTape` of per-step views.  The tape
   exists because requests never stretch the timeline — spin-up
   latency is energy-only — so the busy/gap structure is identical
   under every predictor.  A tape lives only while its execution's
   lanes replay it and is never persisted: a warm run reads each
   lane's record from the artifact cache instead of replaying, and
   restoring a stored tape costs about what building it does.
2. A per-variant *lane* replays the tape with only the per-predictor
   state: predictor instances and standing intents, the pending
   shutdown, prediction stats, and gap energy.  Every lane walks the
   tape's per-step views, with runs of consecutive no-gap
   (``TAPE_SIMPLE``) steps grouped so the dispatch runs once per run.
   Three lane kinds, one function each:

   * a **generic local lane** mirroring
     :class:`~repro.core.global_predictor.GlobalShutdownPredictor` +
     engine + disk accounting expression for expression;
   * a **constant-intent lane** for timeout predictors
     (``PredictorSpec.constant_intent_delay``), which needs no
     per-process state at all: the global ready time is
     ``anchor_max + delay`` (IEEE-754 addition is monotonic, so this is
     bit-identical to maximizing per-slot ready times);
   * an **omniscient lane** for the Base/Ideal gap policies, which ask
     :meth:`~repro.predictors.base.OmniscientPolicy.shutdown_offset`
     once per recorded gap.

**Bit-identity contract (DESIGN §10):** every lane reproduces the
classic path's results bit for bit — same boundary predicates, same
float expression shapes, same accumulation order.  The equivalence is
enforced by ``tests/test_fused.py`` and CI's ``fused-equivalence``
step.  Configurations the lanes do not model — structured tracing,
multistate disks — are rejected by :func:`fused_supported` and fall
back to the classic path.

Every untraced, non-multistate global matrix or sweep with at least
:data:`MIN_FUSED_LANES` predictor lanes takes this path
(:func:`fused_eligible` is the one predicate its callers consult);
single-lane runs, local mode, tracing and multistate keep the classic
per-cell path.  The decomposition changes from (application ×
variant) cells to one fused cell per *application*
(:func:`run_fused_cells`), executed by the one cell executor,
:func:`repro.sim.resilience.run_cells`; results merge through the same
deterministic cell-ordered fold.  Each fused lane is one record, under
the per-(application, predictor)
:func:`~repro.sim.resilience.cell_key` the per-cell path writes, in the
journal and the artifact cache alike, so a run re-executes only the
lanes no run before it recorded, whichever path or command that was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.disk.energy import EnergyBreakdown, sum_breakdowns
from repro.errors import SimulationError
from repro.predictors.base import PredictorSource
from repro.predictors.registry import PredictorSpec
from repro.config import SimulationConfig
from repro.sim.engine import (
    TAPE_FORK,
    TAPE_GAP,
    TAPE_SIMPLE,
    ExecutionRunResult,
    ReplayTape,
    build_replay_tape,
    fired_row,
)
from repro.sim.experiment import ApplicationResult, ExperimentRunner
from repro.sim.metrics import PredictionStats
from repro.sim.resilience import ExperimentCell, ProgressHook
from repro.units import EPSILON

_EPS = EPSILON
_PRIMARY = PredictorSource.PRIMARY


@dataclass(slots=True)
class FusedCellOutcome:
    """One application's lanes as :func:`run_fused_cells` returns them:
    per-variant results, in lane order.

    Only the lanes travel: a fused cell returns them through the fork
    pool, and each is journalled and cached as a record of its own.
    """

    application: str
    results: list[ApplicationResult]


def fused_supported(
    runner: ExperimentRunner, *, multistate: bool = False
) -> bool:
    """Whether the fused kernel models this run.

    The lanes implement the untraced three-state path only; structured
    tracing and the §7 multistate extension take the classic per-cell
    path (callers fall back silently — results are identical either
    way, fused is purely an execution strategy).
    """
    return not multistate and not runner.tracing


#: Fewest predictor lanes for which a matrix or sweep takes the fused
#: path.  One lane cannot pay for building the tape: ``repro run
#: --predictor PCAP`` over a packed store ran slower fused than per
#: cell, while two lanes (PCAP+TP, PCAP+LT) already ran faster fused.
MIN_FUSED_LANES = 2


def fused_eligible(
    runner: ExperimentRunner,
    lanes: int,
    *,
    mode: str = "global",
    multistate: bool = False,
) -> bool:
    """Whether a run of ``lanes`` predictor lanes takes the fused path.

    The one predicate every matrix and sweep entry point consults:
    global mode, a run :func:`fused_supported` models, and at least
    :data:`MIN_FUSED_LANES` lanes.  Everything else takes the per-cell
    path; results are bit-identical either way.
    """
    return (
        lanes >= MIN_FUSED_LANES
        and mode == "global"
        and fused_supported(runner, multistate=multistate)
    )


def replay_execution(
    tape: ReplayTape,
    spec: PredictorSpec,
    config: SimulationConfig,
) -> ExecutionRunResult:
    """Replay one execution's shared tape under one predictor spec.

    Picks the spec's lane: omniscient (Base, Ideal), constant-intent
    (timeout predictors) or generic (everything with per-process
    state).
    """
    if spec.is_omniscient:
        return _replay_omniscient(tape, spec, config)
    if spec.constant_intent_delay is not None:
        return _replay_constant(tape, spec.constant_intent_delay, config)
    return _replay_local(tape, spec, config)


def _finish(
    tape: ReplayTape,
    config: SimulationConfig,
    stats: PredictionStats,
    energy: tuple[float, float, float, float],
    shutdown_count: int,
    delayed_requests: int,
    delay_seconds: float,
    irritating: int,
    fired: list,
) -> ExecutionRunResult:
    idle_short, idle_long, power_cycle, standby = energy
    ledger = EnergyBreakdown(
        busy=tape.busy_energy,
        idle_short=idle_short,
        idle_long=idle_long,
        power_cycle=power_cycle,
        standby=standby,
    )
    return ExecutionRunResult(
        stats=stats,
        ledger=ledger,
        shutdowns=shutdown_count,
        disk_accesses=tape.n_accesses,
        fired=fired,
        delayed_requests=delayed_requests,
        delay_seconds=delay_seconds,
        irritating_delays=irritating,
    )


def _replay_local(
    tape: ReplayTape, spec: PredictorSpec, config: SimulationConfig
) -> ExecutionRunResult:
    """Generic lane: full per-process predictor state, matching
    GlobalShutdownPredictor + engine + SimulatedDisk bit for bit.

    Iterates the tape's prebuilt step views: runs of consecutive
    ``TAPE_SIMPLE`` steps arrive pre-grouped, so the opcode dispatch
    runs once per run instead of once per access.
    """
    factory = spec.local_factory
    assert factory is not None
    params = config.disk
    idle_power = params.idle_power
    standby_power = params.standby_power
    cycle_energy = params.cycle_energy
    transition_time = params.transition_time
    shutdown_time = params.shutdown_time
    spinup_time = params.spinup_time
    breakeven = config.breakeven
    start = tape.start

    #: pid -> [ready_time, source, on_access, on_idle_end]; insertion
    #: and deletion order mirror the classic slot dict, so the decision
    #: scan tie-breaks identically.
    slots: dict[int, list] = {}
    for pid in tape.initial_pids:
        predictor = factory(pid)
        intent = predictor.initial_intent(start)
        delay = intent.delay
        slots[pid] = [
            None if delay is None else start + delay,
            intent.source,
            predictor.on_access,
            predictor.on_idle_end,
        ]

    pending_at: Optional[float] = None
    pending_source = _PRIMARY
    gaps = opportunities = 0
    hits_primary = hits_backup = misses_primary = misses_backup = 0
    unsaved = 0
    idle_seconds = 0.0
    idle_short = idle_long = power_cycle = standby = 0.0
    shutdown_count = delayed_requests = irritating = 0
    delay_seconds = 0.0
    fired: list[list] = []

    for step in tape.views:
        op = step[0]
        if op == TAPE_SIMPLE:
            for pid, access, feedback, busy_after, register, idle_full in (
                step[1]
            ):
                if register:
                    predictor = factory(pid)
                    intent = predictor.initial_intent(access.time)
                    delay = intent.delay
                    slot = [
                        None if delay is None else access.time + delay,
                        intent.source,
                        predictor.on_access,
                        predictor.on_idle_end,
                    ]
                    slots[pid] = slot
                else:
                    slot = slots[pid]
                if feedback is not None:
                    slot[3](feedback)
                intent = slot[2](access)
                delay = intent.delay
                slot[0] = None if delay is None else busy_after + delay
                slot[1] = intent.source
                idle_short += idle_full
        elif op == TAPE_GAP:
            (_, time, can_fire, record, window_start, busy_until,
             gap_length, idle_full, long_period, gap_end, busy_after,
             register, pid, feedback, access, _anchor_max) = step
            if can_fire and pending_at is None:
                # try_shutdown: the decision scan, inlined.
                blocked = False
                latest: Optional[float] = None
                source = _PRIMARY
                for slot in slots.values():
                    ready = slot[0]
                    if ready is None:
                        blocked = True
                        break
                    if latest is None or ready > latest:
                        latest = ready
                        source = slot[1]
                if not blocked:
                    if latest is None:
                        # No live processes: ready time is -inf,
                        # clamped to max(window_start, busy_until).
                        fire_at = (
                            window_start
                            if window_start > busy_until
                            else busy_until
                        )
                    else:
                        fire_at = max(window_start, latest, busy_until)
                    if fire_at < time - _EPS:
                        pending_at = fire_at
                        pending_source = source
            if pending_at is None:
                if long_period:
                    idle_long += idle_full
                else:
                    idle_short += idle_full
                if record:
                    gaps += 1
                    idle_seconds += gap_length
                    if gap_length > breakeven:
                        opportunities += 1
            else:
                shutdown_at = pending_at
                amount = idle_power * (shutdown_at - busy_until)
                if long_period:
                    idle_long += amount
                else:
                    idle_short += amount
                power_cycle += cycle_energy
                off_window = gap_end - shutdown_at
                residence = standby_power * max(
                    0.0, off_window - transition_time
                )
                standby += residence
                if long_period:
                    idle_long += residence
                else:
                    idle_short += residence
                shutdown_count += 1
                delayed_requests += 1
                delay_seconds += spinup_time + max(
                    0.0, (shutdown_at + shutdown_time) - gap_end
                )
                if off_window <= breakeven:
                    irritating += 1
                if record:
                    gaps += 1
                    idle_seconds += gap_length
                    opportunity = gap_length > breakeven
                    if opportunity:
                        opportunities += 1
                    offset = shutdown_at - busy_until
                    fired.append(fired_row(
                        busy_until, gap_length, offset, pending_source,
                        breakeven,
                    ))
                    if gap_length - offset > breakeven + _EPS:
                        if pending_source is _PRIMARY:
                            hits_primary += 1
                        else:
                            hits_backup += 1
                    else:
                        if pending_source is _PRIMARY:
                            misses_primary += 1
                        else:
                            misses_backup += 1
                        if opportunity:
                            unsaved += 1
            if register:
                predictor = factory(pid)
                intent = predictor.initial_intent(time)
                delay = intent.delay
                slot = [
                    None if delay is None else time + delay,
                    intent.source,
                    predictor.on_access,
                    predictor.on_idle_end,
                ]
                slots[pid] = slot
            else:
                slot = slots[pid]
            if feedback is not None:
                slot[3](feedback)
            intent = slot[2](access)
            delay = intent.delay
            slot[0] = None if delay is None else busy_after + delay
            slot[1] = intent.source
            pending_at = None
        elif op == TAPE_FORK:
            _, time, can_fire, window_start, busy_until, pid, is_new, _am = (
                step
            )
            if can_fire and pending_at is None:
                blocked = False
                latest = None
                source = _PRIMARY
                for slot in slots.values():
                    ready = slot[0]
                    if ready is None:
                        blocked = True
                        break
                    if latest is None or ready > latest:
                        latest = ready
                        source = slot[1]
                if not blocked:
                    if latest is None:
                        fire_at = (
                            window_start
                            if window_start > busy_until
                            else busy_until
                        )
                    else:
                        fire_at = max(window_start, latest, busy_until)
                    if fire_at < time - _EPS:
                        pending_at = fire_at
                        pending_source = source
            if is_new:
                predictor = factory(pid)
                intent = predictor.initial_intent(time)
                delay = intent.delay
                slots[pid] = [
                    None if delay is None else time + delay,
                    intent.source,
                    predictor.on_access,
                    predictor.on_idle_end,
                ]
        else:  # TAPE_EXIT
            _, time, can_fire, window_start, busy_until, pid, feedback, _am = (
                step
            )
            if can_fire and pending_at is None:
                blocked = False
                latest = None
                source = _PRIMARY
                for slot in slots.values():
                    ready = slot[0]
                    if ready is None:
                        blocked = True
                        break
                    if latest is None or ready > latest:
                        latest = ready
                        source = slot[1]
                if not blocked:
                    if latest is None:
                        fire_at = (
                            window_start
                            if window_start > busy_until
                            else busy_until
                        )
                    else:
                        fire_at = max(window_start, latest, busy_until)
                    if fire_at < time - _EPS:
                        pending_at = fire_at
                        pending_source = source
            slot = slots.pop(pid)
            if feedback is not None:
                slot[3](feedback)

    # Trailing gap: final try-point, stats, then the finalize ledger.
    if tape.end_can_fire and pending_at is None:
        window_start = tape.final_window_start
        busy_until = tape.final_busy_until
        end = tape.end
        blocked = False
        latest = None
        source = _PRIMARY
        for slot in slots.values():
            ready = slot[0]
            if ready is None:
                blocked = True
                break
            if latest is None or ready > latest:
                latest = ready
                source = slot[1]
        if not blocked:
            if latest is None:
                fire_at = (
                    window_start if window_start > busy_until else busy_until
                )
            else:
                fire_at = max(window_start, latest, busy_until)
            if fire_at < end - _EPS:
                pending_at = fire_at
                pending_source = source
    busy_until = tape.final_busy_until
    if tape.end_record:
        gaps += 1
        idle_seconds += tape.trailing
        opportunity = tape.trailing > breakeven
        if opportunity:
            opportunities += 1
        if pending_at is not None:
            offset = pending_at - busy_until
            fired.append(fired_row(
                busy_until, tape.trailing, offset, pending_source, breakeven
            ))
            if tape.trailing - offset > breakeven + _EPS:
                if pending_source is _PRIMARY:
                    hits_primary += 1
                else:
                    hits_backup += 1
            else:
                if pending_source is _PRIMARY:
                    misses_primary += 1
                else:
                    misses_backup += 1
                if opportunity:
                    unsaved += 1
    if pending_at is None:
        if tape.final_long:
            idle_long += tape.final_idle_full
        else:
            idle_short += tape.final_idle_full
    else:
        shutdown_at = pending_at
        amount = idle_power * (shutdown_at - busy_until)
        if tape.final_long:
            idle_long += amount
        else:
            idle_short += amount
        power_cycle += cycle_energy
        off_window = tape.final_gap_end - shutdown_at
        residence = standby_power * max(0.0, off_window - transition_time)
        standby += residence
        if tape.final_long:
            idle_long += residence
        else:
            idle_short += residence
        shutdown_count += 1
        # Trailing gap: no request follows, nobody waits for a spin-up.

    stats = PredictionStats(
        gaps=gaps,
        opportunities=opportunities,
        hits_primary=hits_primary,
        hits_backup=hits_backup,
        misses_primary=misses_primary,
        misses_backup=misses_backup,
        unsaved_in_opportunity=unsaved,
        idle_seconds=idle_seconds,
    )
    return _finish(
        tape, config, stats,
        (idle_short, idle_long, power_cycle, standby),
        shutdown_count, delayed_requests, delay_seconds, irritating,
        fired,
    )


def _replay_constant(
    tape: ReplayTape, delay: float, config: SimulationConfig
) -> ExecutionRunResult:
    """Constant-intent (timeout) lane.

    Every live process's standing intent is ``delay`` after its anchor
    (creation, then last access completion) with PRIMARY attribution, so
    the global decision is always ``anchor_max + delay`` — the anchor
    maximum is precomputed on the tape — and nothing a process does can
    block the shutdown.  No per-process state is left to keep: the lane
    walks the tape views and resolves each try-point from the step
    alone.
    """
    params = config.disk
    idle_power = params.idle_power
    standby_power = params.standby_power
    cycle_energy = params.cycle_energy
    transition_time = params.transition_time
    shutdown_time = params.shutdown_time
    spinup_time = params.spinup_time
    breakeven = config.breakeven

    pending_at: Optional[float] = None
    gaps = opportunities = 0
    hits = misses = unsaved = 0
    idle_seconds = 0.0
    idle_short = idle_long = power_cycle = standby = 0.0
    shutdown_count = delayed_requests = irritating = 0
    delay_seconds = 0.0
    fired: list[list] = []

    for step in tape.views:
        op = step[0]
        if op == TAPE_SIMPLE:
            for item in step[1]:
                idle_short += item[5]
        elif op == TAPE_GAP:
            (_, time, can_fire, record, window_start, busy_until,
             gap_length, idle_full, long_period, gap_end, _busy_after,
             _register, _pid, _feedback, _access, anchor_max) = step
            if can_fire and pending_at is None:
                if anchor_max is None:
                    fire_at = (
                        window_start
                        if window_start > busy_until
                        else busy_until
                    )
                else:
                    fire_at = max(
                        window_start, anchor_max + delay, busy_until
                    )
                if fire_at < time - _EPS:
                    pending_at = fire_at
            if pending_at is None:
                if long_period:
                    idle_long += idle_full
                else:
                    idle_short += idle_full
                if record:
                    gaps += 1
                    idle_seconds += gap_length
                    if gap_length > breakeven:
                        opportunities += 1
            else:
                shutdown_at = pending_at
                amount = idle_power * (shutdown_at - busy_until)
                if long_period:
                    idle_long += amount
                else:
                    idle_short += amount
                power_cycle += cycle_energy
                off_window = gap_end - shutdown_at
                residence = standby_power * max(
                    0.0, off_window - transition_time
                )
                standby += residence
                if long_period:
                    idle_long += residence
                else:
                    idle_short += residence
                shutdown_count += 1
                delayed_requests += 1
                delay_seconds += spinup_time + max(
                    0.0, (shutdown_at + shutdown_time) - gap_end
                )
                if off_window <= breakeven:
                    irritating += 1
                if record:
                    gaps += 1
                    idle_seconds += gap_length
                    opportunity = gap_length > breakeven
                    if opportunity:
                        opportunities += 1
                    offset = shutdown_at - busy_until
                    fired.append(fired_row(
                        busy_until, gap_length, offset, _PRIMARY, breakeven
                    ))
                    if gap_length - offset > breakeven + _EPS:
                        hits += 1
                    else:
                        misses += 1
                        if opportunity:
                            unsaved += 1
                pending_at = None
        elif op == TAPE_FORK:
            _, time, can_fire, window_start, busy_until, _p, _n, anchor_max = (
                step
            )
            if can_fire and pending_at is None:
                if anchor_max is None:
                    fire_at = (
                        window_start
                        if window_start > busy_until
                        else busy_until
                    )
                else:
                    fire_at = max(
                        window_start, anchor_max + delay, busy_until
                    )
                if fire_at < time - _EPS:
                    pending_at = fire_at
        else:  # TAPE_EXIT
            _, time, can_fire, window_start, busy_until, _p, _f, anchor_max = (
                step
            )
            if can_fire and pending_at is None:
                if anchor_max is None:
                    fire_at = (
                        window_start
                        if window_start > busy_until
                        else busy_until
                    )
                else:
                    fire_at = max(
                        window_start, anchor_max + delay, busy_until
                    )
                if fire_at < time - _EPS:
                    pending_at = fire_at

    if tape.end_can_fire and pending_at is None:
        window_start = tape.final_window_start
        busy_until = tape.final_busy_until
        anchor_max = tape.final_anchor_max
        if anchor_max is None:
            fire_at = window_start if window_start > busy_until else busy_until
        else:
            fire_at = max(window_start, anchor_max + delay, busy_until)
        if fire_at < tape.end - _EPS:
            pending_at = fire_at
    busy_until = tape.final_busy_until
    if tape.end_record:
        gaps += 1
        idle_seconds += tape.trailing
        opportunity = tape.trailing > breakeven
        if opportunity:
            opportunities += 1
        if pending_at is not None:
            offset = pending_at - busy_until
            fired.append(fired_row(
                busy_until, tape.trailing, offset, _PRIMARY, breakeven
            ))
            if tape.trailing - offset > breakeven + _EPS:
                hits += 1
            else:
                misses += 1
                if opportunity:
                    unsaved += 1
    if pending_at is None:
        if tape.final_long:
            idle_long += tape.final_idle_full
        else:
            idle_short += tape.final_idle_full
    else:
        shutdown_at = pending_at
        amount = idle_power * (shutdown_at - busy_until)
        if tape.final_long:
            idle_long += amount
        else:
            idle_short += amount
        power_cycle += cycle_energy
        off_window = tape.final_gap_end - shutdown_at
        residence = standby_power * max(0.0, off_window - transition_time)
        standby += residence
        if tape.final_long:
            idle_long += residence
        else:
            idle_short += residence
        shutdown_count += 1

    stats = PredictionStats(
        gaps=gaps,
        opportunities=opportunities,
        hits_primary=hits,
        misses_primary=misses,
        unsaved_in_opportunity=unsaved,
        idle_seconds=idle_seconds,
    )
    return _finish(
        tape, config, stats,
        (idle_short, idle_long, power_cycle, standby),
        shutdown_count, delayed_requests, delay_seconds, irritating,
        fired,
    )


def _replay_omniscient(
    tape: ReplayTape, spec: PredictorSpec, config: SimulationConfig
) -> ExecutionRunResult:
    """Omniscient lane (Base / Ideal): the policy sees each gap in
    isolation, so one :meth:`shutdown_offset` call per recorded gap is
    the whole decision; forks and exits are invisible to it."""
    policy = spec.omniscient
    assert policy is not None
    shutdown_offset = policy.shutdown_offset
    params = config.disk
    idle_power = params.idle_power
    standby_power = params.standby_power
    cycle_energy = params.cycle_energy
    transition_time = params.transition_time
    shutdown_time = params.shutdown_time
    spinup_time = params.spinup_time
    breakeven = config.breakeven

    gaps = opportunities = hits = misses = unsaved = 0
    idle_seconds = 0.0
    idle_short = idle_long = power_cycle = standby = 0.0
    shutdown_count = delayed_requests = irritating = 0
    delay_seconds = 0.0
    fired: list[list] = []

    for step in tape.views:
        op = step[0]
        if op == TAPE_SIMPLE:
            for item in step[1]:
                idle_short += item[5]
        elif op == TAPE_GAP:
            gap_length = step[6]
            record = step[3]
            idle_full = step[7]
            long_period = step[8]
            offset = shutdown_offset(gap_length) if record else None
            if offset is not None and offset < gap_length - _EPS:
                busy_until = step[5]
                gap_end = step[9]
                shutdown_at = busy_until + offset
                amount = idle_power * (shutdown_at - busy_until)
                if long_period:
                    idle_long += amount
                else:
                    idle_short += amount
                power_cycle += cycle_energy
                off_window = gap_end - shutdown_at
                residence = standby_power * max(
                    0.0, off_window - transition_time
                )
                standby += residence
                if long_period:
                    idle_long += residence
                else:
                    idle_short += residence
                shutdown_count += 1
                delayed_requests += 1
                delay_seconds += spinup_time + max(
                    0.0, (shutdown_at + shutdown_time) - gap_end
                )
                if off_window <= breakeven:
                    irritating += 1
                gaps += 1
                idle_seconds += gap_length
                opportunity = gap_length > breakeven
                if opportunity:
                    opportunities += 1
                fired.append(fired_row(
                    busy_until, gap_length, offset, _PRIMARY, breakeven
                ))
                if gap_length - offset > breakeven + _EPS:
                    hits += 1
                else:
                    misses += 1
                    if opportunity:
                        unsaved += 1
            else:
                if long_period:
                    idle_long += idle_full
                else:
                    idle_short += idle_full
                if record:
                    gaps += 1
                    idle_seconds += gap_length
                    if gap_length > breakeven:
                        opportunities += 1
        # Forks and exits are invisible to omniscient policies.

    shutdown_at = None
    if tape.end_record:
        trailing = tape.trailing
        offset = shutdown_offset(trailing)
        gaps += 1
        idle_seconds += trailing
        opportunity = trailing > breakeven
        if opportunity:
            opportunities += 1
        if offset is not None and offset < trailing - _EPS:
            shutdown_at = tape.final_busy_until + offset
            fired.append(fired_row(
                tape.final_busy_until, trailing, offset, _PRIMARY, breakeven
            ))
            if trailing - offset > breakeven + _EPS:
                hits += 1
            else:
                misses += 1
                if opportunity:
                    unsaved += 1
    if shutdown_at is None:
        if tape.final_long:
            idle_long += tape.final_idle_full
        else:
            idle_short += tape.final_idle_full
    else:
        busy_until = tape.final_busy_until
        amount = idle_power * (shutdown_at - busy_until)
        if tape.final_long:
            idle_long += amount
        else:
            idle_short += amount
        power_cycle += cycle_energy
        off_window = tape.final_gap_end - shutdown_at
        residence = standby_power * max(0.0, off_window - transition_time)
        standby += residence
        if tape.final_long:
            idle_long += residence
        else:
            idle_short += residence
        shutdown_count += 1

    stats = PredictionStats(
        gaps=gaps,
        opportunities=opportunities,
        hits_primary=hits,
        misses_primary=misses,
        unsaved_in_opportunity=unsaved,
        idle_seconds=idle_seconds,
    )
    return _finish(
        tape, config, stats,
        (idle_short, idle_long, power_cycle, standby),
        shutdown_count, delayed_requests, delay_seconds, irritating,
        fired,
    )


def run_fused_application(
    runner: ExperimentRunner,
    application: str,
    specs: Sequence[PredictorSpec],
) -> list[ApplicationResult]:
    """All ``specs`` over one application's trace history in one pass.

    Streams executions through
    :meth:`~repro.sim.experiment.ExperimentRunner.iter_filtered` (so
    store-backed traces stay memory-bounded), builds each execution's
    tape once, and advances every lane over it.  Per variant, the
    sequence of factory calls, feedback deliveries, and
    ``on_execution_end`` hooks is exactly the classic
    :meth:`~repro.sim.experiment.ExperimentRunner.run_global` sequence,
    so shared-table predictors (PCAP, LT) evolve identically.
    """
    if not fused_supported(runner):
        raise SimulationError(
            "fused execution does not support structured tracing; "
            "use the classic per-cell path"
        )
    config = runner.config
    count = len(specs)
    stats = [PredictionStats() for _ in range(count)]
    ledgers: list[list[EnergyBreakdown]] = [[] for _ in range(count)]
    accesses = [0] * count
    shutdowns = [0] * count
    peak_table = [0] * count
    delayed = [0] * count
    delay_seconds = [0.0] * count
    irritating = [0] * count
    executions = 0
    for execution, filtered in runner.iter_filtered(application):
        executions += 1
        tape = build_replay_tape(execution, filtered, config)
        for lane, spec in enumerate(specs):
            result = replay_execution(tape, spec, config)
            stats[lane].merge(result.stats)
            ledgers[lane].append(result.ledger)
            accesses[lane] += result.disk_accesses
            shutdowns[lane] += result.shutdowns
            delayed[lane] += result.delayed_requests
            delay_seconds[lane] += result.delay_seconds
            irritating[lane] += result.irritating_delays
            if spec.table_size is not None:
                peak_table[lane] = max(peak_table[lane], spec.table_size)
            spec.on_execution_end()
        # Release this execution's tape and filter result before the
        # next one is decoded, so only one of each is ever alive.
        del tape, filtered
    return [
        ApplicationResult(
            application=application,
            predictor=spec.name,
            stats=stats[lane],
            ledger=sum_breakdowns(ledgers[lane]),
            executions=executions,
            total_disk_accesses=accesses[lane],
            shutdowns=shutdowns[lane],
            table_size=(
                peak_table[lane] if spec.table_size is not None else None
            ),
            delayed_requests=delayed[lane],
            delay_seconds=delay_seconds[lane],
            irritating_delays=irritating[lane],
        )
        for lane, spec in enumerate(specs)
    ]


def run_fused_cells(
    runner: ExperimentRunner,
    applications: Sequence[str],
    labels: Sequence[str],
    make_specs: Callable[[], list[PredictorSpec]],
    *,
    jobs: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
    policy=None,
    checkpoint=None,
    use_cache: bool = True,
):
    """Fan one fused cell per application across the execution layer.

    ``labels`` name the variant lanes (they parameterize the record
    keys, so they must identify the variants the way classic cell labels
    do); ``make_specs`` builds one fresh spec per label — called inside
    each cell, because specs are stateful.  ``use_cache=False`` bypasses
    the artifact cache (for variant sets built by opaque callables,
    whose labels do not pin down semantics).

    Every lane is one record under the per-(application, label)
    :func:`~repro.sim.resilience.cell_key`, in the journal
    (``checkpoint``, a :class:`~repro.sim.resilience.CellCheckpoint` or
    a path) and the artifact cache alike.  Each lane
    :func:`~repro.sim.resilience.is_recorded` finds is restored as a
    cell of its own; one fused cell per application runs the rest.

    The cells run on :func:`~repro.sim.resilience.run_cells` under
    ``policy`` (default :class:`~repro.sim.resilience.ResiliencePolicy`).
    Returns ``(outcomes, ledger)`` where ``outcomes`` maps application
    → :class:`FusedCellOutcome` and ``ledger`` is the executor's
    :class:`~repro.sim.resilience.RunLedger`.  An application with a
    failed cell is missing from ``outcomes`` — callers inspect the
    ledger.
    """
    from repro.sim.resilience import (
        CellCheckpoint,
        cell_key,
        is_recorded,
        run_cells,
    )

    label_tuple = tuple(labels)
    cache = runner.artifact_cache if use_cache else None
    apps = list(applications)
    every_lane = tuple(range(len(label_tuple)))
    #: (application, lanes) of each cell, in cell order.
    plan = [(app, every_lane) for app in apps]
    keys = None
    owned = None
    if checkpoint is not None and not isinstance(checkpoint, CellCheckpoint):
        checkpoint = owned = CellCheckpoint(checkpoint)
    if checkpoint is not None or cache is not None:
        records = {
            app: [
                (app, cell_key(runner.fingerprint(app), label, runner.config))
                for label in label_tuple
            ]
            for app in apps
        }
        plan = []
        for app in apps:
            missing = tuple(
                lane for lane in every_lane
                if not is_recorded(records[app][lane], checkpoint, cache)
            )
            plan.extend(
                (app, (lane,)) for lane in every_lane if lane not in missing
            )
            if missing:
                plan.append((app, missing))
        keys = [
            tuple(records[app][lane] for lane in lanes)
            for app, lanes in plan
        ]
    cells = [
        ExperimentCell(
            index=index,
            application=app,
            predictor=(
                label_tuple[lanes[0]] if len(lanes) == 1
                else f"fused[{len(lanes)}]"
            ),
        )
        for index, (app, lanes) in enumerate(plan)
    ]

    def run_cell(cell: ExperimentCell) -> list[ApplicationResult]:
        application, lanes = plan[cell.index]
        specs = make_specs()
        return run_fused_application(
            runner, application, [specs[lane] for lane in lanes]
        )

    try:
        ledger = run_cells(
            cells,
            run_cell,
            jobs=jobs,
            policy=policy,
            progress=progress,
            checkpoint=checkpoint,
            cell_keys=keys,
            cell_costs=[runner.row_count(app) for app, _ in plan],
            provenance={"mode": "global", "multistate": False},
            cache=cache,
            # Only applications with cells left to run are filtered.
            prepare=lambda pending: runner.prewarm(
                [cell.application for cell in pending]
            ),
        )
    finally:
        if owned is not None:
            owned.close()
    lanes_of: dict[str, list[Optional[ApplicationResult]]] = {
        app: [None] * len(label_tuple) for app in apps
    }
    for item in ledger.results:
        app, lanes = plan[item.cell.index]
        for lane, result in zip(lanes, item.result):
            lanes_of[app][lane] = result
    # A failed cell drops its whole application row.
    failed = {failure.cell.application for failure in ledger.failures}
    outcomes = {
        app: FusedCellOutcome(app, lane_results)
        for app, lane_results in lanes_of.items()
        if app not in failed
    }
    return outcomes, ledger
