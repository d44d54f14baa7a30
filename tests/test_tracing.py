"""Structured tracing layer: recorder, JSONL round trip, determinism,
serial/parallel equivalence, reconciliation with PredictionStats, and
the untraced engine's ``fired`` timeline against the traced events."""

import io
import pickle

import pytest

from repro.analysis.timeline import render_timeline, render_trace_summary
from repro.cache.filter import filter_execution
from repro.config import SimulationConfig, fork_available
from repro.predictors.registry import KNOWN_PREDICTORS, make_spec
from repro.sim.engine import run_global_execution
from repro.sim.experiment import ExperimentRunner
from repro.sim.tracing import (
    AccessServed,
    GapResolved,
    HistoryUpdate,
    LowPowerEntered,
    ProcessExited,
    ProcessStarted,
    ShutdownCancelled,
    ShutdownFired,
    ShutdownScheduled,
    SignatureLookup,
    SpinUpDelay,
    TableTrain,
    TraceFormatError,
    TraceRecorder,
    UnknownPidRegistered,
    WaitWindowExpired,
    event_from_dict,
    event_to_dict,
    read_jsonl,
    summarize,
    write_jsonl,
)
from repro.workloads import build_suite

ONE_OF_EACH = [
    AccessServed(time=1.0, pid=100, pc=0x1000, block_count=2, busy_until=1.2),
    GapResolved(time=9.0, start=1.2, length=7.8, shutdown_at=2.5),
    ShutdownScheduled(time=2.5, source="primary"),
    ShutdownFired(
        time=2.5, offset=1.3, gap_length=7.8, source="primary", hit=True
    ),
    ShutdownCancelled(time=3.0, reason="wait-window"),
    WaitWindowExpired(time=2.5, source="backup"),
    SignatureLookup(time=1.0, pid=100, key=(0x1234, 0b101, 3), hit=True),
    TableTrain(time=9.0, pid=100, key=0x1234, inserted=False),
    HistoryUpdate(time=9.0, pid=100, bit=1, register=0b11),
    SpinUpDelay(time=9.0, seconds=1.6, irritating=False),
    LowPowerEntered(time=1.4),
    ProcessStarted(time=0.0, pid=100),
    ProcessExited(time=10.0, pid=100),
    UnknownPidRegistered(time=5.0, pid=200),
]


# ---------------------------------------------------------------------------
# Recorder and serialization
# ---------------------------------------------------------------------------


def test_recorder_counts_and_events():
    recorder = TraceRecorder()
    for event in ONE_OF_EACH:
        recorder.emit(event)
    assert len(recorder) == len(ONE_OF_EACH)
    assert recorder.events == tuple(ONE_OF_EACH)
    counts = recorder.counts()
    assert counts["access-served"] == 1
    assert sum(counts.values()) == len(ONE_OF_EACH)
    assert counts == summarize(ONE_OF_EACH)


def test_ring_buffer_drops_events_but_keeps_full_counts():
    recorder = TraceRecorder(capacity=3)
    for event in ONE_OF_EACH:
        recorder.emit(event)
    assert len(recorder) == 3
    assert recorder.events == tuple(ONE_OF_EACH[-3:])
    assert recorder.emitted == len(ONE_OF_EACH)
    assert sum(recorder.counts().values()) == len(ONE_OF_EACH)


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        TraceRecorder(capacity=0)


def test_jsonl_round_trip_every_event_kind():
    stream = io.StringIO()
    assert write_jsonl(ONE_OF_EACH, stream) == len(ONE_OF_EACH)
    stream.seek(0)
    assert read_jsonl(stream) == ONE_OF_EACH


def test_event_dict_round_trip_preserves_tuple_keys():
    event = SignatureLookup(time=1.0, pid=7, key=(1, 2, 3), hit=False)
    restored = event_from_dict(event_to_dict(event))
    assert restored == event
    assert isinstance(restored.key, tuple)


def test_unknown_kind_rejected():
    with pytest.raises(TraceFormatError):
        event_from_dict({"ev": "no-such-event", "time": 1.0})


def test_extra_fields_rejected():
    record = event_to_dict(LowPowerEntered(time=1.0))
    record["bogus"] = 1
    with pytest.raises(TraceFormatError):
        event_from_dict(record)


def test_malformed_jsonl_rejected():
    with pytest.raises(TraceFormatError):
        read_jsonl(io.StringIO("not json\n"))
    with pytest.raises(TraceFormatError):
        read_jsonl(io.StringIO("[1, 2]\n"))


def test_events_are_picklable():
    assert pickle.loads(pickle.dumps(ONE_OF_EACH)) == ONE_OF_EACH


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------

APP = "mplayer"


def _traced_run(small_suite, *, predictor="PCAP"):
    runner = ExperimentRunner(small_suite, tracing=True)
    return runner.run_global(APP, predictor)


def test_traced_run_reconciles_with_stats(small_suite):
    """Acceptance: shutdown-fired events == stats hits + misses."""
    result = _traced_run(small_suite)
    fired = [e for e in result.trace_events if e.kind == "shutdown-fired"]
    assert len(fired) == result.stats.shutdowns
    hits = sum(1 for e in fired if e.hit)
    assert hits == result.stats.hits
    assert len(fired) - hits == result.stats.misses
    assert result.trace_summary == summarize(result.trace_events)


def test_traced_run_covers_the_event_vocabulary(small_suite):
    result = _traced_run(small_suite)
    kinds = set(result.trace_summary)
    assert {
        "access-served",
        "gap-resolved",
        "proc-start",
        "proc-exit",
        "shutdown-sched",
        "shutdown-fired",
        "sig-lookup",
        "table-train",
        "wait-expired",
    } <= kinds
    assert result.trace_summary["access-served"] == result.total_disk_accesses


def test_untraced_fired_rows_equal_traced_events():
    """Every predictor, local-based and omniscient, single-lane and
    multistate, over the scale-0.2 suite with specs carried across
    executions: an untraced run's ``fired`` equals the rows of the
    ``shutdown-fired`` events a traced run emits, one per shutdown the
    stats count.  ``repr`` spells each float's shortest round trip, so
    equal strings mean equal bits."""
    config = SimulationConfig()
    suite = build_suite(scale=0.2)
    rows = runs = 0
    for application in sorted(suite):
        pairs = [
            (execution, filter_execution(execution, config.cache))
            for execution in suite[application].executions
        ]
        for name in KNOWN_PREDICTORS:
            for multistate in (False, True):
                plain = make_spec(name, config)
                traced = make_spec(name, config)
                for execution, filtered in pairs:
                    where = (application, execution.execution_index, name,
                             multistate)
                    untraced = run_global_execution(
                        execution, filtered, plain, config,
                        multistate=multistate,
                    )
                    recorder = TraceRecorder()
                    result = run_global_execution(
                        execution, filtered, traced, config,
                        multistate=multistate, tracer=recorder,
                    )
                    events = [
                        [e.time, e.offset, e.gap_length, e.source, e.hit]
                        for e in recorder.events
                        if isinstance(e, ShutdownFired)
                    ]
                    assert repr(untraced.fired) == repr(events), where
                    assert repr(result.fired) == repr(events), where
                    assert len(untraced.fired) == untraced.stats.shutdowns, (
                        where
                    )
                    plain.on_execution_end()
                    traced.on_execution_end()
                    rows += len(events)
                    runs += 1
    assert runs == 2 * len(KNOWN_PREDICTORS) * sum(
        len(trace.executions) for trace in suite.values()
    )
    assert rows > 0


def test_tracing_disabled_results_identical(small_suite):
    """Tracing must be observation only: identical stats and ledger,
    and a disabled run carries no events at all."""
    plain = ExperimentRunner(small_suite).run_global(APP, "PCAP")
    traced = _traced_run(small_suite)
    assert plain.trace_summary is None
    assert plain.trace_events == ()
    assert traced.stats == plain.stats
    assert traced.ledger == plain.ledger
    assert traced.shutdowns == plain.shutdowns
    assert traced.delay_seconds == plain.delay_seconds


def test_serial_replay_is_deterministic(small_suite):
    first = _traced_run(small_suite)
    second = _traced_run(small_suite)
    assert first.trace_events == second.trace_events


def test_traced_local_run(small_suite):
    runner = ExperimentRunner(small_suite, tracing=True)
    result = runner.run_local(APP, "PCAP")
    assert result.trace_summary is not None
    fired = [e for e in result.trace_events if e.kind == "shutdown-fired"]
    assert len(fired) == result.stats.shutdowns


def test_trace_capacity_bounds_retained_events(small_suite):
    runner = ExperimentRunner(small_suite, tracing=True, trace_capacity=16)
    result = runner.run_global(APP, "PCAP")
    assert len(result.trace_events) == 16
    assert sum(result.trace_summary.values()) > 16


def test_multistate_run_emits_low_power_events(small_suite):
    runner = ExperimentRunner(small_suite, tracing=True)
    result = runner.run_global(APP, "PCAP", multistate=True)
    assert result.trace_summary.get("low-power", 0) > 0


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_parallel_cells_reproduce_serial_event_streams(small_suite):
    apps = ["mplayer", "nedit"]
    serial = ExperimentRunner(small_suite, tracing=True)
    expected = {
        app: serial.run_global(app, "PCAP").trace_events for app in apps
    }
    parallel = ExperimentRunner(small_suite, jobs=2, tracing=True)
    results = parallel.run_suite("PCAP", applications=apps)
    for app in apps:
        assert results[app].trace_events == expected[app]
        assert results[app].trace_summary == summarize(expected[app])


# ---------------------------------------------------------------------------
# Timeline rendering
# ---------------------------------------------------------------------------


def test_render_timeline_lines_and_limit():
    text = render_timeline(ONE_OF_EACH, limit=5, title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert len([line for line in lines if line.startswith("t=")]) == 5
    assert "more events" in lines[-1]
    full = render_timeline(ONE_OF_EACH)
    assert len(full.splitlines()) == len(ONE_OF_EACH)
    assert "HIT" in full and "wait-window" in full


def test_render_timeline_empty():
    assert "no events" in render_timeline([])


def test_render_trace_summary():
    text = render_trace_summary(summarize(ONE_OF_EACH))
    assert "access-served" in text and "event counts" in text
    assert render_trace_summary({}) == "(no events recorded)"
