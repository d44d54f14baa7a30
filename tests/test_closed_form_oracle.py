"""Base and Ideal against an oracle that shares no code with the engine.

The classic engine (``run_global_execution``) and the fused lanes
(``replay_execution``) were written to mirror one another, so a
semantic bug they share would pass every equivalence gate between
them.  :func:`closed_form` recomputes Figure 8's two reference rows per
execution straight from the DESIGN §4 closed forms.  It reads only
configuration values (:class:`~repro.config.SimulationConfig` and its
disk parameters) and each filtered access's arrival time and block
count, and calls nothing from ``repro.sim``, ``repro.disk`` or
``repro.core``:

* busy intervals: a request starts at its arrival, or back-to-back
  behind the previous one when it arrives more than ``EPSILON`` before
  the disk frees up;
* gaps: the leading gap (execution start → first arrival), one before
  each request that is not back-to-back, and the trailing gap (last
  completion → execution end); those longer than ``EPSILON`` are the
  idle periods the statistics count;
* Ideal shuts down at the start of every gap longer than breakeven,
  Base never;
* a gap of length ``L`` shut down at offset ``t`` costs ``P_idle·t`` of
  idle, one power cycle, and ``P_standby·max(0, (L − t) − T_trans)`` of
  standby residence, charged to the gap's length class; a gap left
  alone costs ``P_idle·L``.  The request ending a shut-down gap waits
  ``T_su + max(0, t + T_sd − L)`` and irritates the user when the
  off-window ``L − t`` is at most breakeven; it is a hit when the
  off-window beats breakeven by more than ``EPSILON``;
* each shutdown is one ``fired`` row, ``[gap start + t, t, L,
  "primary", hit]``, in time order.

Every sum folds in time order, which is the engine's order too, so
integer fields must match exactly and float fields to the bit.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.cache.filter import filter_execution
from repro.config import SimulationConfig
from repro.predictors.registry import make_spec
from repro.sim.engine import build_replay_tape, run_global_execution
from repro.sim.fused import replay_execution
from repro.traces.trace import ExecutionTrace
from repro.units import EPSILON
from repro.workloads import build_suite

from .helpers import single_process_execution, two_process_execution

APPLICATIONS = ("mozilla", "writer", "impress", "xemacs", "nedit", "mplayer")

INT_FIELDS = (
    "gaps",
    "opportunities",
    "hits_primary",
    "hits_backup",
    "misses_primary",
    "misses_backup",
    "unsaved_in_opportunity",
    "shutdowns",
    "disk_accesses",
    "delayed_requests",
    "irritating_delays",
)
FLOAT_FIELDS = (
    "idle_seconds",
    "busy",
    "idle_short",
    "idle_long",
    "power_cycle",
    "standby",
    "delay_seconds",
)


def closed_form(config, accesses, start, end, *, ideal):
    """Base (``ideal=False``) or Ideal over one execution.

    ``accesses`` are the filtered ``(arrival time, block count)`` pairs
    in stream order.  Returns ``{field: value}`` over
    :data:`INT_FIELDS`, :data:`FLOAT_FIELDS` and ``fired``.
    """
    disk = config.disk
    t_trans = disk.shutdown_time + disk.spinup_time
    e_cycle = disk.shutdown_energy + disk.spinup_energy
    # P_idle·L = E_cycle + P_standby·(L − T_trans), never below T_trans.
    breakeven = max(
        t_trans,
        (e_cycle - disk.standby_power * t_trans)
        / (disk.idle_power - disk.standby_power),
    )
    out = dict.fromkeys(INT_FIELDS, 0)
    out.update(dict.fromkeys(FLOAT_FIELDS, 0.0))
    out["disk_accesses"] = len(accesses)
    out["fired"] = []

    busy_until = start
    #: (gap start, next arrival or execution end, a request follows)
    gaps = []
    for time, blocks in accesses:
        duration = config.service_time + config.service_time_per_block * blocks
        out["busy"] += disk.busy_power * duration
        if time < busy_until - EPSILON:
            busy_until += duration
        else:
            gaps.append((busy_until, time, True))
            busy_until = time + duration
    gaps.append((busy_until, end, False))

    for gap_start, gap_end, request_follows in gaps:
        length = gap_end - gap_start
        # A request up to EPSILON early ends a zero-length gap.
        span = max(gap_end, gap_start) - gap_start
        bucket = "idle_long" if span > breakeven else "idle_short"
        opportunity = length > breakeven
        if length > EPSILON:
            out["gaps"] += 1
            out["idle_seconds"] += length
            out["opportunities"] += opportunity
        if not (ideal and length > breakeven):
            out[bucket] += disk.idle_power * span
            continue
        offset = 0.0
        shutdown_at = gap_start + offset
        off_window = gap_end - shutdown_at
        residence = disk.standby_power * max(0.0, off_window - t_trans)
        out[bucket] += disk.idle_power * (shutdown_at - gap_start)
        out["power_cycle"] += e_cycle
        out["standby"] += residence
        out[bucket] += residence
        out["shutdowns"] += 1
        hit = length - offset > breakeven + EPSILON
        out["fired"].append([shutdown_at, offset, length, "primary", hit])
        if hit:
            out["hits_primary"] += 1
        else:
            out["misses_primary"] += 1
            out["unsaved_in_opportunity"] += opportunity
        if request_follows:
            out["delayed_requests"] += 1
            out["delay_seconds"] += disk.spinup_time + max(
                0.0, (shutdown_at + disk.shutdown_time) - gap_end
            )
            out["irritating_delays"] += off_window <= breakeven
    return out


def flatten(result) -> dict:
    """An ``ExecutionRunResult`` in :func:`closed_form`'s field names."""
    fields = asdict(result)
    return {**fields.pop("stats"), **fields.pop("ledger"), **fields}


def check_execution(execution, config) -> dict:
    """Oracle vs classic engine vs fused lane, for Base and Ideal.

    Returns the Ideal oracle row (callers assert the trace is not
    vacuous).
    """
    filtered = filter_execution(execution, config.cache)
    accesses = [(a.time, a.block_count) for a in filtered.accesses]
    tape = build_replay_tape(execution, filtered, config)
    rows = {}
    for name, ideal in (("Base", False), ("Ideal", True)):
        expected = closed_form(
            config,
            accesses,
            execution.start_time,
            execution.end_time,
            ideal=ideal,
        )
        classic = run_global_execution(
            execution, filtered, make_spec(name, config), config
        )
        fused = replay_execution(tape, make_spec(name, config), config)
        for path, result in (("classic", classic), ("fused", fused)):
            observed = flatten(result)
            where = (execution.application, execution.execution_index, name)
            assert observed.keys() == expected.keys(), (where, path)
            for field in INT_FIELDS:
                assert observed[field] == expected[field], (where, path, field)
            for field in FLOAT_FIELDS:
                value = observed[field]
                assert isinstance(value, float), (where, path, field)
                assert value.hex() == expected[field].hex(), (
                    where, path, field, value, expected[field],
                )
            # ``repr`` spells each float's shortest round trip, so
            # equal strings mean equal bits.
            assert repr(observed["fired"]) == repr(expected["fired"]), (
                where, path,
            )
        rows[name] = expected
    return rows["Ideal"]


def test_generated_suite():
    """Every execution of the six generated applications at scale 0.1."""
    config = SimulationConfig()
    suite = build_suite(scale=0.1)
    assert sorted(suite) == sorted(APPLICATIONS)
    shutdowns = 0
    for application in APPLICATIONS:
        gaps = 0
        for execution in suite[application]:
            ideal = check_execution(execution, config)
            gaps += ideal["gaps"]
            shutdowns += ideal["shutdowns"]
        assert gaps > 0, application
    # Short executions at this scale leave some applications without a
    # gap past breakeven, but the suite as a whole has Ideal shut down.
    assert shutdowns > 0


def test_single_process_trace():
    """Back-to-back bursts, short and long gaps, a long trailing gap."""
    config = SimulationConfig()
    burst = config.access_duration(1) / 2.0
    times = [1.0, 1.0 + burst, 1.0 + 2 * burst, 4.0, 30.0, 30.0 + burst]
    execution = single_process_execution(
        [(time, 0x10 + i) for i, time in enumerate(times)], end_time=90.0
    )
    ideal = check_execution(execution, config)
    # The queued requests open no gap: only 1→4, 4→30 and the trailing
    # gap count, and Ideal shuts down in the last two.
    assert ideal["gaps"] == 3
    assert ideal["shutdowns"] == 2
    assert ideal["delayed_requests"] == 1


def test_two_process_trace():
    """A forked helper and two exits interleave with the main process."""
    config = SimulationConfig()
    execution = two_process_execution(
        [(1.0, 0x10), (30.0, 0x20), (75.0, 0x30)],
        [(2.0, 0x40), (31.0, 0x50)],
        end_time=100.0,
    )
    ideal = check_execution(execution, config)
    assert ideal["shutdowns"] == 3


def test_empty_execution():
    """No events at all: only a zero-length trailing gap, never counted."""
    config = SimulationConfig()
    execution = ExecutionTrace.from_events(
        application="app",
        execution_index=0,
        events=[],
        initial_pids=frozenset({100}),
    )
    assert check_execution(execution, config)["gaps"] == 0
