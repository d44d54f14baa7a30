"""One in-memory execution format: the trace store's columns, end to end.

The generator builds columns, the page-cache filter walks column chunks,
the store packs them and the serve wire carries them; event objects are
built only at the JSONL, strace and test boundaries.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.figures import FIG8_PREDICTORS
from repro.analysis.tables import build_table1
from repro.errors import TraceError, TraceStoreError
from repro.serve.worker import ShardWorker
from repro.sim.artifact_cache import trace_fingerprint
from repro.sim.experiment import ExperimentRunner
from repro.traces import store as store_module
from repro.traces import trace as trace_module
from repro.traces.events import IOEvent
from repro.traces.store import (
    EVENT_ROW_BYTES,
    StoreWriter,
    TraceStore,
    decode_column_rows,
    encode_column_rows,
    encode_event_rows,
    pack_trace,
)
from repro.traces.trace import COLUMNS, ExecutionTrace, columns_from_rows
from repro.workloads import build_application, build_suite

#: ``trace_fingerprint`` of each application at scale 0.1, as the
#: fingerprint hashes each column's bytes.  The column digests below pin
#: the rows themselves; these pin the fingerprint's definition on them.
SCALE_01_FINGERPRINTS = {
    "mozilla": "0e054d9aab54fcd58f9e0e9bbf0c1bf4a4fa73d6",
    "writer": "a08f309fc741f70066495b986f2d2e6e2b5978be",
    "impress": "76bd43af04741d29bc1833c3025bef62a582e565",
    "xemacs": "7c9f4f7e8d7ae2c96ec19354f0cd8612fb5dcd70",
    "nedit": "d78279b5d6647e13b4ffdf7e277511bcf5a58316",
    "mplayer": "97f550f7ed0f94e4ede352e8ecba3ad2a953da17",
}

#: SHA-256 of each application's column bytes at scale 0.1: every
#: execution's columns in :data:`COLUMNS` order, ``tobytes()`` each.
#: Unlike the fingerprints above, this pin does not depend on how the
#: fingerprint is defined, so it holds the generator alone to its rows.
SCALE_01_COLUMN_DIGESTS = {
    "mozilla":
        "4e46b2224ead547db79c04fadeef074f7be8750acf9a344a7be95f5b6106dca6",
    "writer":
        "f938e0dc43f3c9f74cccbd3abebc462a13344b03cf6fbfcb372b981e4076af73",
    "impress":
        "a913b2ac0530503cae3baa49b6017032fa964b1373a981bd615cd02cef6b80e2",
    "xemacs":
        "6d455dfb19eb51e9fa23a2f79647ff472442fd6ec0e268d3716f9acdd1aaeeb3",
    "nedit":
        "3cdd601f979d5296a29c660c923e3678092ef4f2554c03ee74b95339f2493843",
    "mplayer":
        "bf91031b782cdfb4175257e9fd72bdab8d84908e32930ca713da45939ec69a10",
}


def _column_digest(trace) -> str:
    digest = hashlib.sha256()
    for execution in trace:
        columns = execution.columns
        for name, _ in COLUMNS:
            digest.update(columns[name].tobytes())
    return digest.hexdigest()


def test_generator_output_is_pinned():
    suite = build_suite(scale=0.1)
    assert {
        name: trace_fingerprint(trace) for name, trace in suite.items()
    } == SCALE_01_FINGERPRINTS


def test_generator_column_bytes_are_pinned():
    suite = build_suite(scale=0.1)
    assert {
        name: _column_digest(trace) for name, trace in suite.items()
    } == SCALE_01_COLUMN_DIGESTS


def test_pipeline_builds_no_event_objects(tmp_path, monkeypatch):
    """Generation, a Fig 8 matrix, Table 1, a store pack and a shard
    worker round trip, with every way of building an I/O event object
    refused from the start."""

    def refuse(*args, **kwargs):
        raise AssertionError("an I/O event object was built")

    monkeypatch.setattr(IOEvent, "__post_init__", refuse)
    # The one decoder that builds events without running their checks,
    # wherever it is bound.
    monkeypatch.setattr(trace_module, "events_from_columns", refuse)
    monkeypatch.setattr(store_module, "events_from_columns", refuse)
    applications = ("nedit", "mozilla")
    suite = {
        name: build_application(name, scale=0.1) for name in applications
    }
    runner = ExperimentRunner(suite, jobs=1)
    matrix = runner.run_matrix(FIG8_PREDICTORS)
    assert {name: set(row) for name, row in matrix.items()} == {
        name: set(FIG8_PREDICTORS) for name in applications
    }
    assert [row.application for row in build_table1(runner)] == list(
        applications
    )

    with StoreWriter(tmp_path / "store") as writer:
        for trace in suite.values():
            pack_trace(trace, writer)
    assert TraceStore(tmp_path / "store").fingerprints() == {
        name: runner.fingerprint(name) for name in applications
    }

    state = str(tmp_path / "serve")
    worker = ShardWorker(0, state)
    for seq, execution in enumerate(suite["nedit"]):
        worker.process(
            client="c", client_seq=seq, application="nedit",
            execution_index=execution.execution_index,
            initial_pids=sorted(execution.initial_pids),
            rows=encode_column_rows(execution.columns),
        )
    tables = worker.tables()
    worker.close()
    recovered = ShardWorker(0, state)
    assert recovered.recovered == len(suite["nedit"])
    assert recovered.tables() == tables
    recovered.close()


def test_wire_rows_round_trip_bit_identically():
    execution = build_suite(scale=0.1)["mozilla"].executions[0]
    rows = encode_column_rows(execution.columns)
    assert len(rows) == execution.event_count * EVENT_ROW_BYTES
    assert rows == encode_event_rows(execution.events)
    decoded = ExecutionTrace(
        execution.application, execution.execution_index,
        decode_column_rows(rows), execution.initial_pids,
    )
    assert decoded == execution


@pytest.mark.parametrize(
    ("row", "problem"),
    [
        ((3, 0.0, 1, 0, 0, 0, 0, 0, 0, 0), "unknown event type code 3"),
        ((0, 0.0, 1, 0, 0, 9, 0, 0, 0, 0), "unknown access kind code 9"),
    ],
)
def test_wire_rows_reject_unknown_codes(row, problem):
    rows = encode_column_rows(columns_from_rows([row]))
    with pytest.raises(TraceStoreError, match=problem):
        decode_column_rows(rows)
    with pytest.raises(TraceStoreError, match="row grid|row size"):
        decode_column_rows(rows[:-1])


@pytest.mark.parametrize(
    ("row", "problem"),
    [
        ((0, -0.5, 100, 16, 3, 0, 1, 0, 1, 0), "non-negative"),
        ((0, 0.5, 100, 2**32, 3, 0, 1, 0, 1, 0), "32-bit"),
        ((0, 0.5, 100, 16, 3, 0, 1, 0, -1, 0), "block count"),
        ((1, 0.5, 100, 0, 0, 0, 0, 0, 0, 100), "fork itself"),
    ],
)
def test_validate_makes_the_event_constructor_checks(row, problem):
    execution = ExecutionTrace(
        "app", 0, columns_from_rows([row]), frozenset({100})
    )
    with pytest.raises(TraceError, match=problem):
        execution.validate()
