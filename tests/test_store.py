"""Trace store: round-trips, bit-identity, corruption handling, memory.

The streaming contract under test (DESIGN §10): running a suite from an
on-disk store must be *bit-identical* to running it from the in-memory
containers — same filter results, same energy, same predictor stats,
same structured trace events — while the store path touches one chunk
window at a time.
"""

from __future__ import annotations

import json
import pickle
import tracemalloc

import pytest

from repro import faults
from repro.config import SimulationConfig
from repro.errors import TraceStoreError
from repro.sim.experiment import ExperimentRunner
from repro.sim.sweep import sweep
from repro.traces.io_format import write_application_trace
from repro.traces.store import (
    MANIFEST_NAME,
    StoreWriter,
    TraceStore,
    pack_jsonl,
    pack_trace,
)
from repro.workloads import (
    APPLICATIONS,
    application_spec,
    build_application_trace,
    pack_generated,
)


@pytest.fixture(scope="module")
def store_and_suite(tmp_path_factory, small_suite):
    """The 0.25-scale suite packed once, with small chunks so every
    application spans several chunk windows."""
    path = tmp_path_factory.mktemp("trace-store") / "suite-store"
    store = pack_generated(path, scale=0.25, chunk_rows=1024)
    return store, small_suite


class TestRoundTrip:
    def test_events_bit_identical(self, store_and_suite):
        store, suite = store_and_suite
        for name, trace in suite.items():
            stored = store.trace(name)
            assert len(stored) == len(trace.executions)
            for mem, st in zip(trace, stored):
                assert list(st.iter_events()) == mem.events

    def test_metadata_matches(self, store_and_suite):
        store, suite = store_and_suite
        for name, trace in suite.items():
            stored = store.trace(name)
            assert stored.total_io_count == trace.total_io_count
            for mem, st in zip(trace, stored):
                assert st.application == mem.application
                assert st.execution_index == mem.execution_index
                assert st.initial_pids == mem.initial_pids
                assert st.start_time == mem.start_time
                assert st.end_time == mem.end_time
                assert st.event_count == mem.event_count
                assert st.pids == mem.pids
                assert st.lifetimes() == mem.lifetimes()
                assert st.liveness_events() == mem.liveness_events()

    def test_chunk_windows_cover_execution(self, store_and_suite):
        store, _ = store_and_suite
        stored = store.trace("mplayer")
        execution = max(stored, key=lambda e: e.event_count)
        windows = execution.chunk_windows()
        assert len(windows) > 1  # actually exercises chunking
        assert windows[0][0] == execution.row_start
        assert windows[-1][1] == execution.row_start + execution.event_count
        for (_, a_end), (b_start, _) in zip(windows, windows[1:]):
            assert a_end == b_start
        assert all(
            end - start <= store.chunk_rows for start, end in windows
        )

    def test_materialize_equals_source(self, store_and_suite):
        store, suite = store_and_suite
        stored = store.trace("nedit")
        materialized = stored.materialize()
        assert materialized.executions == suite["nedit"].executions

    def test_jsonl_pack_matches_generated_pack(self, tmp_path, small_suite):
        jsonl = tmp_path / "nedit.jsonl"
        with open(jsonl, "w", encoding="utf-8") as stream:
            write_application_trace(small_suite["nedit"], stream)
        with StoreWriter(tmp_path / "store") as writer:
            with open(jsonl, "r", encoding="utf-8") as stream:
                packed = pack_jsonl(stream, writer)
        store = TraceStore(tmp_path / "store")
        assert packed == len(small_suite["nedit"].executions)
        stored = store.trace("nedit")
        for mem, st in zip(small_suite["nedit"], stored):
            assert list(st.iter_events()) == mem.events

    def test_fingerprint_independent_of_chunk_size(
        self, tmp_path, small_suite
    ):
        fingerprints = []
        for chunk_rows in (128, 4096):
            path = tmp_path / f"chunks-{chunk_rows}"
            with StoreWriter(path, chunk_rows=chunk_rows) as writer:
                pack_trace(small_suite["nedit"], writer)
            fingerprints.append(
                TraceStore(path).fingerprints()["nedit"]
            )
        assert fingerprints[0] == fingerprints[1]

    def test_trace_pickle_is_tiny_and_reopens(self, store_and_suite):
        store, _ = store_and_suite
        trace = store.trace("xemacs")
        blob = pickle.dumps(trace)
        assert len(blob) < 500
        clone = pickle.loads(blob)
        assert clone.fingerprint == trace.fingerprint
        assert (
            list(clone.executions[0].iter_events())
            == list(trace.executions[0].iter_events())
        )


class TestBitIdentity:
    def test_serial_suite_identical(self, store_and_suite):
        store, suite = store_and_suite
        mem = ExperimentRunner(suite)
        st = ExperimentRunner(store.suite())
        for predictor in ("PCAP", "TP", "Ideal"):
            assert mem.run_suite(predictor) == st.run_suite(predictor)

    def test_parallel_suite_identical(self, store_and_suite):
        store, suite = store_and_suite
        mem = ExperimentRunner(suite)
        st = ExperimentRunner(store.suite(), jobs=2)
        assert st.run_suite("PCAP") == mem.run_suite("PCAP")

    def test_traced_runs_identical(self, store_and_suite):
        store, suite = store_and_suite
        mem = ExperimentRunner(suite, tracing=True, trace_capacity=512)
        st = ExperimentRunner(
            store.suite(), tracing=True, trace_capacity=512
        )
        assert (
            mem.run_global("writer", "PCAP")
            == st.run_global("writer", "PCAP")
        )
        assert (
            mem.run_local("writer", "PCAP")
            == st.run_local("writer", "PCAP")
        )

    def test_resilient_run_identical(self, store_and_suite, tmp_path):
        store, suite = store_and_suite
        mem = ExperimentRunner(suite)
        st = ExperimentRunner(store.suite(), jobs=1)
        report = st.run_matrix_resilient(
            ["PCAP"], checkpoint=str(tmp_path / "cells.ckpt")
        )
        assert report.complete
        assert report.matrix == mem.run_matrix(["PCAP"])

    def test_runner_fingerprint_comes_from_manifest(self, store_and_suite):
        store, _ = store_and_suite
        runner = ExperimentRunner(store.suite())
        for name in APPLICATIONS:
            assert runner.fingerprint(name) == store.fingerprints()[name]

    def test_streaming_path_does_not_memoize(self, store_and_suite):
        store, _ = store_and_suite
        runner = ExperimentRunner(store.suite())
        runner.run_global("nedit", "PCAP")
        assert runner._filtered == {}

    def test_prewarm_skips_streaming_traces(self, store_and_suite):
        store, _ = store_and_suite
        runner = ExperimentRunner(store.suite(), jobs=2)
        runner.prewarm()
        assert runner._filtered == {}

    def test_per_cell_sweep_does_not_memoize_streaming_traces(
        self, store_and_suite
    ):
        """A make_config sweep takes the per-cell path; its parent-side
        warm-up must keep the store's one-execution memory bound."""
        store, suite = store_and_suite
        runner = ExperimentRunner(store.suite(("nedit",)), jobs=1)
        make_config = lambda w: SimulationConfig(wait_window=w)  # noqa: E731
        points = sweep(runner, (0.5, 2.0), make_config=make_config)
        assert runner._filtered == {}
        assert points == sweep(
            ExperimentRunner({"nedit": suite["nedit"]}), (0.5, 2.0),
            make_config=make_config,
        )


class TestFullScale:
    def test_full_suite_scale_one_bit_identity(self, tmp_path):
        """Acceptance gate: the six-application suite at scale 1.0 runs
        store-backed with results bit-identical to the in-memory path.

        Built directly (not via :func:`build_suite`) so the scale-1.0
        entry does not evict the shared session suite from the
        ``lru_cache``-backed suite memo mid-run."""
        suite = {
            name: build_application_trace(application_spec(name), scale=1.0)
            for name in APPLICATIONS
        }
        path = tmp_path / "full-store"
        with StoreWriter(path) as writer:
            for trace in suite.values():
                pack_trace(trace, writer)
        store = TraceStore(path)
        mem = ExperimentRunner(suite)
        st = ExperimentRunner(store.suite())
        assert mem.run_suite("PCAP") == st.run_suite("PCAP")


class TestCorruption:
    def _pack_one(self, path):
        return pack_generated(
            path, scale=0.25, applications=("nedit",), chunk_rows=256
        )

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(TraceStoreError, match="not a trace store"):
            TraceStore(tmp_path / "empty")

    def test_corrupt_manifest_quarantined(self, tmp_path):
        store_dir = tmp_path / "store"
        self._pack_one(store_dir)
        (store_dir / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(TraceStoreError, match="quarantined"):
            TraceStore(store_dir)
        assert (store_dir / (MANIFEST_NAME + ".corrupt")).exists()

    def test_unsupported_version_rejected(self, tmp_path):
        store_dir = tmp_path / "store"
        self._pack_one(store_dir)
        manifest = json.loads(
            (store_dir / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        manifest["version"] = 999
        (store_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest), encoding="utf-8"
        )
        with pytest.raises(TraceStoreError, match="version"):
            TraceStore(store_dir)

    def test_truncated_column_quarantined(self, tmp_path):
        store_dir = tmp_path / "store"
        store = self._pack_one(store_dir)
        column = store_dir / "columns" / "time.bin"
        with open(column, "r+b") as stream:
            stream.truncate(column.stat().st_size // 2)
        with pytest.raises(TraceStoreError, match="quarantined"):
            list(store.trace("nedit").executions[0].iter_events())
        assert (store_dir / "columns" / "time.bin.corrupt").exists()

    def test_missing_column_is_clear_error(self, tmp_path):
        store_dir = tmp_path / "store"
        store = self._pack_one(store_dir)
        (store_dir / "columns" / "pid.bin").unlink()
        with pytest.raises(TraceStoreError, match="missing"):
            list(store.trace("nedit").executions[0].iter_events())

    def test_faults_hook_fires_on_store_reads(self, tmp_path):
        """The chaos harness's cache.corrupt-read site covers store
        column reads: the injected truncation is detected, the file is
        quarantined, and the error is a clean TraceStoreError."""
        store_dir = tmp_path / "store"
        store = self._pack_one(store_dir)
        faults.install(faults.parse_fault_plan("cache.corrupt-read"))
        try:
            with pytest.raises(TraceStoreError, match="quarantined"):
                list(store.trace("nedit").executions[0].iter_events())
        finally:
            faults.clear()
        corrupted = list((store_dir / "columns").glob("*.corrupt"))
        assert corrupted

    def test_writer_refuses_to_overwrite(self, tmp_path):
        store_dir = tmp_path / "store"
        self._pack_one(store_dir)
        with pytest.raises(TraceStoreError, match="refusing"):
            StoreWriter(store_dir)

    def test_aborted_writer_leaves_no_manifest(self, tmp_path, small_suite):
        store_dir = tmp_path / "store"
        with pytest.raises(RuntimeError):
            with StoreWriter(store_dir) as writer:
                writer.write_execution(small_suite["nedit"].executions[0])
                raise RuntimeError("boom")
        assert not (store_dir / MANIFEST_NAME).exists()
        with pytest.raises(TraceStoreError, match="not a trace store"):
            TraceStore(store_dir)


class TestMemoryBound:
    def test_streaming_peak_below_one_materialized_execution(self, tmp_path):
        """Streaming the *whole* store allocates less than materializing
        even a single execution's event list: peak memory tracks the
        chunk window, not the trace."""
        store = pack_generated(
            tmp_path / "store",
            scale=0.25,
            applications=("mplayer",),
            chunk_rows=512,
        )
        executions = store.trace("mplayer").executions
        biggest = max(executions, key=lambda e: e.event_count)
        assert biggest.event_count > 4 * 512

        tracemalloc.start()
        try:
            for execution in executions:
                for _ in execution.iter_events():
                    pass
            _, peak_streaming = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            events = list(biggest.iter_events())
            _, peak_materialized = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(events) == biggest.event_count
        assert peak_streaming < peak_materialized

    def test_ten_x_scale_streams_with_flat_peak(self, tmp_path):
        """A 10x-scale pack streams with roughly the same peak as a
        1x-scale pack: memory is bounded by the chunk window, not the
        store size."""
        small = pack_generated(
            tmp_path / "small",
            scale=0.1,
            applications=("nedit",),
            chunk_rows=512,
        )
        big = pack_generated(
            tmp_path / "big",
            scale=1.0,
            applications=("nedit",),
            chunk_rows=512,
        )
        assert big.rows > 10 * small.rows

        def streaming_peak(store: TraceStore) -> int:
            tracemalloc.start()
            try:
                for execution in store.trace("nedit"):
                    for _ in execution.iter_events():
                        pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        peak_small = streaming_peak(small)
        peak_big = streaming_peak(big)
        # >10x the data, peak within 3x (chunk-window bounded; the
        # in-memory equivalent would grow with the row count).
        assert peak_big < 3 * peak_small


class TestChunkBoundaries:
    """Chunk-window arithmetic at the edges (tiny chunk sizes).

    A `StoreBackedTrace` streams each execution through
    `windows_for`-cut chunk windows; an off-by-one at a chunk edge
    would drop or duplicate a row silently.  Degenerate chunk sizes
    (1-3 rows) put every execution boundary on or next to a chunk
    edge, so any window bug shows up as a stream diff.
    """

    def _pack(self, path, chunk_rows):
        trace = build_application_trace(
            application_spec("nedit"), scale=0.25
        )
        with StoreWriter(path, chunk_rows=chunk_rows) as writer:
            pack_trace(trace, writer)
        return trace, TraceStore(path)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_tiny_chunks_round_trip(self, tmp_path, chunk_rows):
        trace, store = self._pack(tmp_path / f"c{chunk_rows}", chunk_rows)
        stored = store.trace("nedit")
        for mem, st in zip(trace, stored):
            assert list(st.iter_events()) == mem.events

    def test_windows_exactly_tile_the_range(self, tmp_path):
        _, store = self._pack(tmp_path / "tile", 3)
        rows = store.rows
        assert rows > 3
        for start, stop in [
            (0, rows),          # whole store
            (0, 3),             # exactly one chunk
            (3, 6),             # chunk-aligned interior
            (2, 4),             # straddles one edge
            (3, 4),             # first row of a chunk
            (2, 3),             # last row of a chunk
            (rows - 1, rows),   # single final row
            (5, 5),             # empty
        ]:
            stop = min(stop, rows)
            windows = store.windows_for(start, stop)
            # windows tile [start, stop) exactly: contiguous, in order,
            # non-empty, each within one chunk.
            if start >= stop:
                assert windows == []
                continue
            assert windows[0][0] == start
            assert windows[-1][1] == stop
            for (_, a_end), (b_start, _) in zip(windows, windows[1:]):
                assert a_end == b_start
            for a, b in windows:
                assert a < b
                assert b - a <= store.chunk_rows
                assert a // store.chunk_rows == (b - 1) // store.chunk_rows

    def test_out_of_range_windows_raise(self, tmp_path):
        _, store = self._pack(tmp_path / "bounds", 3)
        rows = store.rows
        with pytest.raises(TraceStoreError, match="outside the store"):
            store.windows_for(0, rows + 1)
        with pytest.raises(TraceStoreError, match="outside the store"):
            store.windows_for(-1, rows)
        with pytest.raises(TraceStoreError, match="outside the store"):
            store.decode_rows(rows - 1, rows + 1)
        with pytest.raises(TraceStoreError, match="outside the store"):
            store.decode_rows(-2, 0)
        # In-range decodes at the exact edges still work.
        assert len(store.decode_rows(rows - 1, rows)) == 1
        assert store.decode_rows(0, 0) == []

    def test_simulation_identical_across_chunk_sizes(self, tmp_path):
        """Same workload, chunk sizes 1 and 1024: bit-identical runs."""
        results = []
        for chunk_rows in (1, 1024):
            _, store = self._pack(tmp_path / f"sim{chunk_rows}", chunk_rows)
            runner = ExperimentRunner(store.suite(), SimulationConfig())
            results.append(runner.run_global("nedit", "PCAP"))
        assert results[0] == results[1]


def _mixed_execution():
    """I/O rows first and last, a fork and an exit between them."""
    from repro.traces.events import ExitEvent, ForkEvent
    from repro.traces.trace import ExecutionTrace
    from tests.helpers import io_event

    return ExecutionTrace.from_events("demo", 0, [
        io_event(0.0, pid=1),
        ForkEvent(1.0, 2, 1),
        io_event(2.0, pid=2, block_start=1),
        ExitEvent(3.0, 2),
        io_event(4.0, pid=1, block_start=2),
    ], initial_pids=(1,))


def _poke(store_dir, column, row, code):
    """Overwrite one byte of a one-byte column file in place."""
    with open(store_dir / "columns" / f"{column}.bin", "r+b") as stream:
        stream.seek(row)
        stream.write(bytes([code]))


@pytest.mark.parametrize(("column", "row", "code", "problem"), [
    ("etype", 0, 3, "row 0: unknown event type code 3"),
    ("etype", 4, 255, "row 4: unknown event type code 255"),
    ("kind", 0, 6, "row 0: unknown access kind code 6"),
    ("kind", 4, 200, "row 4: unknown access kind code 200"),
    # A fork or exit row's kind is no code, so any byte passes.
    ("kind", 1, 200, None),
    ("kind", 3, 6, None),
])
class TestRowCodes:
    """The wire decoder, the store reader and the artifact cache's hit
    check run one byte-level check of the ``etype`` and ``kind``
    columns, with one message, at any row."""

    def test_wire_decoder(self, column, row, code, problem):
        from repro.traces.store import decode_column_rows, encode_column_rows

        columns = _mixed_execution().columns
        columns[column][row] = code
        payload = encode_column_rows(columns)
        if problem is None:
            assert decode_column_rows(payload)[column][row] == code
            return
        with pytest.raises(TraceStoreError, match=problem):
            decode_column_rows(payload)

    def test_store_columns(self, tmp_path, column, row, code, problem):
        store_dir = tmp_path / "store"
        with StoreWriter(store_dir) as writer:
            writer.write_execution(_mixed_execution())
        _poke(store_dir, column, row, code)
        store = TraceStore(store_dir)
        if problem is None:
            assert store.columns()[column][row] == code
            return
        with pytest.raises(TraceStoreError, match=f"corrupt: {problem}"):
            store.columns()
        # A bad code is reported; only a wrongly sized file is moved aside.
        assert not list((store_dir / "columns").glob("*.corrupt"))

    def test_artifact_cache_hit_check(self, tmp_path, column, row, code,
                                      problem):
        from repro.sim.artifact_cache import ArtifactCache
        from repro.traces.trace import ApplicationTrace

        cache = ArtifactCache(tmp_path / "cache")
        key = "ab" * 20
        cache.put_trace(key, ApplicationTrace("demo", [_mixed_execution()]))
        path = cache.trace_path_for(key)
        _poke(path, column, row, code)
        trace = cache.get_trace(key)
        if problem is None:
            assert trace is not None and cache.stats.hits == 1
            return
        assert trace is None
        assert cache.stats.corrupt == 1 and cache.stats.quarantined == 1
        aside = path.with_name(path.name + ".corrupt")
        assert aside.is_dir() and not path.exists()
        with pytest.raises(TraceStoreError, match=problem):
            TraceStore(aside).check()


def test_hit_check_reads_each_column_once(tmp_path, monkeypatch):
    """The cache's hit check passes every column through the
    ``cache.corrupt-read`` fault site once, and mapping the columns
    afterwards passes none through it again."""
    from repro.sim.artifact_cache import ArtifactCache
    from repro.traces.trace import COLUMNS, ApplicationTrace

    cache = ArtifactCache(tmp_path)
    key = "cd" * 20
    cache.put_trace(key, ApplicationTrace("demo", [_mixed_execution()]))
    seen = []
    monkeypatch.setattr(faults, "corrupt_cache_read",
                        lambda path: seen.append(path.name))
    trace = cache.get_trace(key)
    assert sorted(seen) == sorted(f"{name}.bin" for name, _ in COLUMNS)
    assert trace.executions[0].columns["etype"].tolist() == [0, 1, 0, 2, 0]
    assert len(seen) == len(COLUMNS)


def test_row_bytes_match_numpy_itemsizes():
    """The store sizes its columns from the dtype specs' widths."""
    import numpy as np

    from repro.traces.store import EVENT_ROW_BYTES
    from repro.traces.trace import COLUMNS

    assert EVENT_ROW_BYTES == sum(
        np.dtype(spec).itemsize for _, spec in COLUMNS
    )
