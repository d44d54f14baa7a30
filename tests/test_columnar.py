"""Columnar hot-path view: bit-identity with the scalar path + memos."""

from __future__ import annotations

import pickle

import numpy as np

from repro.cache.filter import filter_execution
from repro.config import SimulationConfig
from repro.sim.columnar import ColumnarAccesses
from repro.workloads import build_application
from tests.helpers import access, single_process_execution


def _stream():
    return [
        access(0.5, pid=100, pc=0x10, fd=3, block_count=1),
        access(2.0, pid=101, pc=0x20, fd=4, block_count=3),
        access(9.0, pid=100, pc=0x30, fd=3, block_count=2),
        access(40.0, pid=102, pc=0x40, fd=5, block_count=7),
        access(41.0, pid=101, pc=0x20, fd=4, block_count=1),
    ]


def test_columns_match_rows():
    rows = _stream()
    cols = ColumnarAccesses.from_accesses(rows)
    assert len(cols) == len(rows)
    assert cols.times.tolist() == [a.time for a in rows]
    assert cols.block_counts.tolist() == [a.block_count for a in rows]


def test_durations_bit_identical_to_scalar_formula():
    config = SimulationConfig()
    rows = _stream()
    cols = ColumnarAccesses.from_accesses(rows)
    vectorized = cols.durations_list(config)
    scalar = [config.access_duration(a.block_count) for a in rows]
    # Bit-identity, not approximate equality: the vectorized path must
    # perform the exact same two IEEE-754 operations per element.
    assert all(v == s for v, s in zip(vectorized, scalar))
    assert [v.hex() for v in vectorized] == [s.hex() for s in scalar]


def test_durations_bit_identical_on_generated_workload():
    config = SimulationConfig()
    execution = build_application("nedit", scale=0.1).executions[0]
    filtered = filter_execution(execution, config.cache)
    cols = filtered.columnar()
    vectorized = cols.durations_list(config)
    assert [v.hex() for v in vectorized] == [
        config.access_duration(a.block_count).hex()
        for a in filtered.accesses
    ]
    assert cols.times_list() == [a.time for a in filtered.accesses]


def test_durations_memoized_per_config():
    cols = ColumnarAccesses.from_accesses(_stream())
    base = SimulationConfig()
    assert cols.durations_list(base) is cols.durations_list(base)
    slower = SimulationConfig(service_time=0.020)
    assert cols.durations_list(slower) is not cols.durations_list(base)
    assert cols.durations_list(slower)[0] != cols.durations_list(base)[0]


# ----------------------------------------------- FilterResult memos --


def test_filter_result_memos_return_same_object():
    execution = single_process_execution(
        [(0.0, 0x10), (30.0, 0x20), (60.0, 0x10)], end_time=90.0
    )
    filtered = filter_execution(execution)
    # Regression guard: repeated access must hand back the *same*
    # objects, not rebuilt copies — replays lean on these memos.
    assert filtered.per_process() is filtered.per_process()
    assert filtered.columnar() is filtered.columnar()


def test_filter_result_pickle_drops_memos_but_keeps_value():
    execution = single_process_execution(
        [(0.0, 0x10), (30.0, 0x20), (60.0, 0x10)], end_time=90.0
    )
    filtered = filter_execution(execution)
    filtered.columnar()
    filtered.per_process()
    clone = pickle.loads(pickle.dumps(filtered))
    assert clone == filtered
    assert clone._columnar is None and clone._per_process is None
    # Rebuilt memos agree with the originals.
    assert clone.per_process() == filtered.per_process()
    assert np.array_equal(clone.columnar().times, filtered.columnar().times)
