"""Replay tape (repro.sim.engine.ReplayTape).

The tape is the shared per-execution skeleton every fused lane replays;
its contract has two legs, both exercised here at the edges:

* the tape :func:`~repro.sim.engine.build_replay_tape` builds replays
  bit-identically to the classic engine for one lane of each kind —
  including empty executions, fork/exit boundaries, zero-gap (all
  ``TAPE_SIMPLE``) streams, and single-access processes; and
* store-backed builds are identical across degenerate chunk sizes
  (1–3 rows) and never decode event objects — the page-cache filter
  and the tape builder both run off the columns read from the store.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.cache.filter import filter_execution
from repro.config import SimulationConfig
from repro.predictors.registry import make_spec
from repro.sim.engine import (
    TAPE_EXIT,
    TAPE_FORK,
    TAPE_GAP,
    TAPE_SIMPLE,
    build_replay_tape,
    run_global_execution,
)
from repro.sim.fused import replay_execution
from repro.traces.store import StoreWriter, TraceStore, pack_trace
from repro.traces.trace import ExecutionTrace
from repro.workloads import build_application_trace, application_spec

from .helpers import single_process_execution, two_process_execution

#: One lane of each kind: constant-intent, omniscient ×2, generic.
LANES = ("TP", "Base", "Ideal", "PCAP")


def build(execution, config):
    """(tape, filter result) of one execution."""
    filtered = filter_execution(execution)
    return build_replay_tape(execution, filtered, config), filtered


def access_steps(tape):
    """``(pid, access, feedback, register)`` of every access step, in
    schedule order, from grouped ``TAPE_SIMPLE`` runs and ``TAPE_GAP``
    steps alike."""
    for step in tape.views:
        if step[0] == TAPE_SIMPLE:
            for pid, access, feedback, _busy, register, _idle in step[1]:
                yield pid, access, feedback, register
        elif step[0] == TAPE_GAP:
            yield step[12], step[14], step[13], step[11]


def assert_replay_matches_classic(execution, filtered, tape, config):
    """Each lane's tape replay equals the classic engine bit for bit.

    ``repr`` spells every float in its shortest round-trip form, so
    equal strings mean equal bits (signed zeros included).
    """
    for name in LANES:
        classic = run_global_execution(
            execution, filtered, make_spec(name, config), config
        )
        replayed = replay_execution(tape, make_spec(name, config), config)
        assert repr(replayed) == repr(classic), name


class TestBuilderEquivalence:
    """The built tape replays like ``run_global_execution``."""

    def test_single_process_trace(self):
        config = SimulationConfig()
        execution = single_process_execution(
            [(1.0, 0x10), (9.0, 0x20), (40.0, 0x30), (41.0, 0x10)],
            end_time=90.0,
        )
        tape, filtered = build(execution, config)
        assert tape.n_accesses == 4
        assert_replay_matches_classic(execution, filtered, tape, config)

    def test_fork_exit_trace(self):
        config = SimulationConfig()
        execution = two_process_execution(
            [(1.0, 0x10), (30.0, 0x20), (75.0, 0x30)],
            [(2.0, 0x40), (31.0, 0x50)],
            end_time=100.0,
        )
        tape, filtered = build(execution, config)
        liveness = [
            step[0] for step in tape.views
            if step[0] in (TAPE_FORK, TAPE_EXIT)
        ]
        assert liveness.count(TAPE_FORK) == 1
        assert liveness.count(TAPE_EXIT) == 2
        assert_replay_matches_classic(execution, filtered, tape, config)

    def test_generated_workloads(self):
        """Every execution of two representative generated apps."""
        config = SimulationConfig()
        for name in ("nedit", "mozilla"):
            trace = build_application_trace(
                application_spec(name), scale=0.25
            )
            for execution in trace:
                tape, filtered = build(execution, config)
                assert_replay_matches_classic(
                    execution, filtered, tape, config
                )


class TestEdgeCases:
    def test_empty_execution(self):
        config = SimulationConfig()
        execution = ExecutionTrace.from_events(
            application="app",
            execution_index=0,
            events=[],
            initial_pids=frozenset({100}),
        )
        tape, filtered = build(execution, config)
        assert filtered.accesses == []
        assert tape.views == []
        assert tape.n_accesses == 0
        assert tape.busy_energy == 0.0
        assert_replay_matches_classic(execution, filtered, tape, config)

    def test_zero_gap_all_simple(self):
        """Back-to-back accesses: every access step is TAPE_SIMPLE (no
        try-point, no recorded gap), grouped into one run."""
        config = SimulationConfig()
        step = config.access_duration(1) / 4.0
        times = [1.0 + i * step for i in range(12)]
        execution = single_process_execution(
            [(time, 0x10) for time in times], end_time=times[-1] + step
        )
        tape, filtered = build(execution, config)
        runs = [
            step for step in tape.views if step[0] in (TAPE_SIMPLE, TAPE_GAP)
        ]
        assert [run[0] for run in runs] == [TAPE_SIMPLE]
        assert [item[1] for item in runs[0][1]] == filtered.accesses
        assert_replay_matches_classic(execution, filtered, tape, config)

    def test_single_access_processes(self):
        """Each process touches the disk exactly once: every access's
        feedback gap starts at its process's creation (the execution
        start for the initial pid, the fork for the helper)."""
        config = SimulationConfig()
        execution = two_process_execution(
            [(1.0, 0x10)], [(50.0, 0x20)], end_time=120.0
        )
        tape, filtered = build(execution, config)
        steps = list(access_steps(tape))
        assert sorted(pid for pid, _, _, _ in steps) == [100, 101]
        assert not any(register for _, _, _, register in steps)
        assert [feedback.start for _, _, feedback, _ in steps] == [
            execution.start_time, 0.01,
        ]
        assert_replay_matches_classic(execution, filtered, tape, config)


class TestStoreBackedBuilds:
    def _pack(self, path, chunk_rows):
        trace = build_application_trace(
            application_spec("nedit"), scale=0.25
        )
        with StoreWriter(path, chunk_rows=chunk_rows) as writer:
            pack_trace(trace, writer)
        return trace, TraceStore(path)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_tiny_chunks_match_in_memory_build(self, tmp_path, chunk_rows):
        """Degenerate chunk sizes put every execution boundary on a
        chunk edge; the store-backed tape must still equal the
        in-memory one step for step.  ``repr`` spells every float in
        its shortest round-trip form, so equal strings mean equal
        bits."""
        config = SimulationConfig()
        trace, store = self._pack(tmp_path / f"c{chunk_rows}", chunk_rows)
        stored = store.trace("nedit")
        for mem, st in zip(trace, stored):
            mem_tape = build_replay_tape(
                mem, filter_execution(mem), config
            )
            st_tape = build_replay_tape(st, filter_execution(st), config)
            assert repr(mem_tape) == repr(st_tape)

    def test_store_filter_never_decodes_events(self, tmp_path, monkeypatch):
        """The column path: filtering a store-backed execution and
        building its tape never materializes decoded event objects."""
        config = SimulationConfig()
        _, store = self._pack(tmp_path / "nodecode", 256)
        monkeypatch.setattr(
            TraceStore,
            "decode_rows",
            lambda *args, **kwargs: pytest.fail(
                "store-backed filter/tape build decoded event objects"
            ),
        )
        built = 0
        for execution in store.trace("nedit"):
            filtered = filter_execution(execution)
            build_replay_tape(execution, filtered, config)
            built += 1
        assert built > 0


class TestMemoryBound:
    def test_store_backed_build_peak_below_event_objects(self, tmp_path):
        """At 10x the usual test scale, building every tape straight
        off the store's columns allocates less than even materializing
        the decoded event stream, although tracemalloc counts the rows
        each execution reads from the column files — the column path
        never holds event objects."""
        config = SimulationConfig()
        trace = build_application_trace(
            application_spec("nedit"), scale=1.0
        )
        path = tmp_path / "big"
        with StoreWriter(path, chunk_rows=512) as writer:
            pack_trace(trace, writer)
        store = TraceStore(path)

        tracemalloc.start()
        try:
            for execution in store.trace("nedit"):
                filtered = filter_execution(execution)
                build_replay_tape(execution, filtered, config)
            _, peak_columns = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            events = [
                list(execution.iter_events())
                for execution in store.trace("nedit")
            ]
            _, peak_events = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(chunk) for chunk in events) == store.rows
        assert peak_columns < peak_events
