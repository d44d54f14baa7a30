"""Columnar replay tape (repro.sim.columnar.ColumnarTape).

The tape is the shared per-execution skeleton every fused lane replays;
its contract has three legs, all exercised here at the edges:

* the tape :func:`~repro.sim.engine.build_replay_tape` builds replays
  bit-identically to the classic engine for one lane of each kind —
  including empty executions, fork/exit boundaries, zero-gap (all
  ``TAPE_SIMPLE``) streams, and single-access processes;
* store-backed builds are identical across degenerate chunk sizes
  (1–3 rows) and never decode event objects — the page-cache filter
  and the tape builder both run off the memmapped columns; and
* the tape is a value: it pickles without its memos and refuses to
  replay a generic lane before an access stream is bound.
"""

from __future__ import annotations

import math
import pickle
import tracemalloc

import pytest

from repro.cache.filter import filter_execution
from repro.config import SimulationConfig
from repro.predictors.registry import make_spec
from repro.sim.columnar import (
    _TAPE_ARRAY_FIELDS,
    _TAPE_SCALAR_FIELDS,
    TAPE_SIMPLE,
    ColumnarTape,
)
from repro.sim.engine import build_replay_tape, run_global_execution
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


def assert_tapes_bitwise_equal(a: ColumnarTape, b: ColumnarTape) -> None:
    """Every column byte-identical, every scalar equal (NaN-aware)."""
    for name in _TAPE_ARRAY_FIELDS:
        col_a, col_b = getattr(a, name), getattr(b, name)
        assert col_a.dtype == col_b.dtype, name
        assert col_a.tobytes() == col_b.tobytes(), name
    for name in _TAPE_SCALAR_FIELDS:
        val_a, val_b = getattr(a, name), getattr(b, name)
        if (
            isinstance(val_a, float)
            and isinstance(val_b, float)
            and math.isnan(val_a)
        ):
            assert math.isnan(val_b), name
        else:
            assert val_a == val_b, name


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
        liveness = tape.access_index < 0
        assert int(liveness.sum()) == 3  # one fork, two exits
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
        assert len(tape) == 0
        assert tape.n_accesses == 0
        assert tape.busy_energy == 0.0
        assert_replay_matches_classic(execution, filtered, tape, config)

    def test_zero_gap_all_simple(self):
        """Back-to-back accesses: every step is TAPE_SIMPLE, no gaps."""
        config = SimulationConfig()
        step = config.access_duration(1) / 4.0
        times = [1.0 + i * step for i in range(12)]
        execution = single_process_execution(
            [(time, 0x10) for time in times], end_time=times[-1] + step
        )
        tape, filtered = build(execution, config)
        access_steps = tape.access_index >= 0
        assert (tape.op[access_steps] == TAPE_SIMPLE).all()
        assert not tape.can_fire[access_steps].any()
        assert not tape.record[access_steps].any()
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
        access_steps = tape.access_index >= 0
        assert sorted(tape.pids[access_steps].tolist()) == [100, 101]
        assert not tape.register[access_steps].any()
        assert tape.fb_start[access_steps].tolist() == [
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
        chunk edge; the store-backed tape must still be byte-identical
        to the in-memory one."""
        config = SimulationConfig()
        trace, store = self._pack(tmp_path / f"c{chunk_rows}", chunk_rows)
        stored = store.trace("nedit")
        for mem, st in zip(trace, stored):
            mem_tape = build_replay_tape(
                mem, filter_execution(mem), config
            )
            st_tape = build_replay_tape(st, filter_execution(st), config)
            assert_tapes_bitwise_equal(mem_tape, st_tape)

    def test_store_filter_never_decodes_events(self, tmp_path, monkeypatch):
        """The zero-copy path: filtering a store-backed execution and
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
        off the store's memmapped columns allocates less than even
        materializing the decoded event stream — the zero-copy path
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


class TestTapeValueSemantics:
    def _tape(self, config):
        execution = single_process_execution(
            [(1.0, 0x10), (9.0, 0x20), (40.0, 0x30)], end_time=90.0
        )
        filtered = filter_execution(execution)
        return build_replay_tape(execution, filtered, config), filtered

    def test_pickle_roundtrip_drops_memos(self):
        config = SimulationConfig()
        tape, filtered = self._tape(config)
        tape.replay_views()  # populate memos
        clone = pickle.loads(pickle.dumps(tape))
        assert_tapes_bitwise_equal(tape, clone)
        # The clone starts memo-free and unbound.
        with pytest.raises(ValueError, match="bind_accesses"):
            clone.replay_views()
        clone.bind_accesses(filtered.accesses)
        for name in LANES:
            assert replay_execution(
                clone, make_spec(name, config), config
            ) == replay_execution(tape, make_spec(name, config), config)

    def test_replay_views_requires_bound_accesses(self):
        """A cache-restored tape refuses the generic lane until rebound."""
        config = SimulationConfig()
        execution = single_process_execution(
            [(1.0, 0x10), (40.0, 0x20)], end_time=90.0
        )
        filtered = filter_execution(execution)
        tape = pickle.loads(
            pickle.dumps(build_replay_tape(execution, filtered, config))
        )
        with pytest.raises(ValueError, match="bind_accesses"):
            tape.replay_views()
        tape.bind_accesses(filtered.accesses)
        assert tape.replay_views()

    def test_inline_views_match_column_rebuild(self):
        """The builder's inline step views equal the tuples a memo-free
        clone rebuilds from the columns."""
        config = SimulationConfig()
        execution = two_process_execution(
            [(1.0, 0x10), (30.0, 0x20), (75.0, 0x30)],
            [(2.0, 0x40), (31.0, 0x50)],
            end_time=100.0,
        )
        filtered = filter_execution(execution)
        tape = build_replay_tape(execution, filtered, config)
        clone = pickle.loads(pickle.dumps(tape))
        clone.bind_accesses(filtered.accesses)
        assert tape.replay_views() == clone.replay_views()
