"""Property tests: the generator's record-per-step trace builder against
a per-row reference loop, and the column-byte trace fingerprint."""

from __future__ import annotations

import tempfile
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.artifact_cache import trace_fingerprint
from repro.traces.events import AccessType
from repro.traces.io_format import write_execution
from repro.traces.store import StoreWriter, TraceStore, pack_jsonl, pack_trace
from repro.traces.trace import (
    COLUMNS,
    KIND_CODE,
    ApplicationTrace,
    ExecutionTrace,
    columns_from_rows,
)
from repro.workloads.activities import IOStep
from repro.workloads.base import (
    _FRESH_AREA_BLOCKS,
    _HOT_AREA_BLOCKS,
    MAIN_PID,
    FileSpace,
    TraceBuilder,
)
from repro.workloads.rng import stable_pc

APPLICATION = "propapp"
HELPER_PID = MAIN_PID + 1
#: Steps naming this process run on the helper.
PID_MAP = {"aux": HELPER_PID}
FILES = ("lib", "doc", "media")


class ReferenceBuilder:
    """The per-row generator loop: one row tuple per repetition of a
    step, zipped into columns by :func:`columns_from_rows`."""

    def __init__(self, application: str, execution_index: int) -> None:
        self.application = application
        self.execution_index = execution_index
        self.files = FileSpace(application, execution_index)
        self.rows: list[tuple] = []
        self.latest_time = 0.0

    def fork(self, time, pid, parent):
        self.rows.append((1, time, pid, 0, 0, 0, 0, 0, 0, parent))

    def exit(self, time, pid):
        self.rows.append((2, time, pid, 0, 0, 0, 0, 0, 0, 0))

    def emit_steps(self, start, pid, steps, pid_map=None):
        t = start
        append = self.rows.append
        files = self.files
        for step in steps:
            pc = stable_pc(self.application, step.function)
            if step.process is None:
                step_pid = pid
            else:
                if pid_map is None or step.process not in pid_map:
                    raise ConfigurationError(
                        f"step {step.function!r} names unknown process "
                        f"{step.process!r}"
                    )
                step_pid = pid_map[step.process]
            kind = KIND_CODE[step.kind]
            inode = files.inode(step.file)
            for _ in range(step.repeat):
                t += step.pre_gap
                if step.fresh:
                    block_start, count = files.fresh_range(
                        step.file, step.blocks
                    )
                else:
                    block_start, count = files.hot_range(
                        step.file, step.blocks
                    )
                append((0, t, step_pid, pc, step.fd, kind, inode,
                        block_start, count, 0))
        self.latest_time = max(self.latest_time, t)
        return t

    def finish(self, initial_pids):
        execution = ExecutionTrace(
            self.application, self.execution_index,
            columns_from_rows(self.rows), initial_pids,
        ).sorted()
        execution.validate()
        return execution


pre_gaps = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-12, max_value=1e-6),
    st.floats(min_value=1e-3, max_value=2.0),
)

steps = st.builds(
    IOStep,
    function=st.sampled_from(("open", "read", "scan", "save")),
    file=st.sampled_from(FILES),
    fd=st.integers(min_value=0, max_value=9),
    blocks=st.integers(min_value=0, max_value=64),
    kind=st.sampled_from(list(AccessType)),
    pre_gap=pre_gaps,
    fresh=st.booleans(),
    repeat=st.integers(min_value=1, max_value=40),
    process=st.sampled_from((None, None, "aux")),
)

#: ``(start, pid, steps)``: starts are drawn independently, so bursts
#: overlap in time, and a burst runs on the main process or the helper.
bursts = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),
        st.sampled_from((MAIN_PID, HELPER_PID)),
        st.lists(steps, min_size=1, max_size=5).map(tuple),
    ),
    max_size=5,
)

#: Blocks left below the end of the fresh area before the bursts: a
#: fresh step then wraps its cursor partway through its repeats.
fresh_room = st.one_of(st.none(), st.integers(min_value=0, max_value=80))


def _build(builder, index_bursts, room, file):
    """Drive ``builder`` through one execution: a helper fork, an
    optional fresh read that leaves ``room`` blocks in ``file``'s fresh
    area, the bursts, and both exits.  Returns each burst's end time."""
    builder.fork(0.0, HELPER_PID, MAIN_PID)
    if room is not None:
        builder.emit_steps(0.0, MAIN_PID, (IOStep(
            function="skip", file=file, fd=3,
            blocks=_FRESH_AREA_BLOCKS - room, fresh=True, pre_gap=0.0,
        ),))
    ends = [
        builder.emit_steps(start, pid, burst_steps, PID_MAP)
        for start, pid, burst_steps in index_bursts
    ]
    t = builder.latest_time + 0.003
    builder.exit(t, HELPER_PID)
    builder.exit(t + 0.003, MAIN_PID)
    return ends


def _generate(drawn, room, file, index=0, builder_type=TraceBuilder):
    builder = builder_type(APPLICATION, index)
    ends = _build(builder, drawn, room, file)
    return builder.finish(frozenset({MAIN_PID})), ends, builder.latest_time


@settings(max_examples=120, deadline=None)
@given(bursts, fresh_room, st.sampled_from(FILES),
       st.integers(min_value=0, max_value=3))
def test_builder_matches_the_per_row_loop(drawn, room, file, index):
    execution, ends, latest = _generate(drawn, room, file, index)
    expected, expected_ends, expected_latest = _generate(
        drawn, room, file, index, ReferenceBuilder
    )
    assert ends == expected_ends
    assert latest == expected_latest
    for name, spec in COLUMNS:
        column = execution.columns[name]
        assert column.dtype == np.dtype(spec), name
        assert column.tobytes() == expected.columns[name].tobytes(), name


@settings(max_examples=60, deadline=None)
@given(st.lists(steps, max_size=4), st.lists(steps, max_size=4),
       st.sampled_from(("process", "hot")), st.sampled_from(FILES))
def test_builder_rejects_what_the_loop_rejects(before, after, fault, file):
    if fault == "process":
        bad = IOStep(function="ghost_read", file=file, fd=3,
                     process="ghost")
    else:
        bad = IOStep(function="huge_read", file=file, fd=3,
                     blocks=_HOT_AREA_BLOCKS + 1)
    burst = (*before, bad, *after)
    for builder_type in (TraceBuilder, ReferenceBuilder):
        with pytest.raises(ConfigurationError):
            builder_type(APPLICATION, 0).emit_steps(
                1.0, MAIN_PID, burst, PID_MAP
            )


# ------------------------------------------------------------ fingerprint
executions = st.lists(
    st.tuples(bursts, fresh_room, st.sampled_from(FILES)),
    min_size=1, max_size=3,
).map(lambda drawn: ApplicationTrace(APPLICATION, [
    _generate(bursts_, room, file, index)[0]
    for index, (bursts_, room, file) in enumerate(drawn)
]))


def _pack(trace, path: Path, chunk_rows: int) -> TraceStore:
    with StoreWriter(path, chunk_rows=chunk_rows) as writer:
        pack_trace(trace, writer)
    return TraceStore(path)


@settings(max_examples=40, deadline=None)
@given(executions, st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=300))
def test_fingerprint_is_one_value_wherever_the_rows_live(trace, first,
                                                        second):
    """In memory, stored at any chunk size, repacked from a store, and
    repacked from JSON lines: one fingerprint."""
    expected = trace_fingerprint(trace)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        stored = _pack(trace, root / "first", first)
        assert stored.fingerprints() == {APPLICATION: expected}
        # Read back chunk window by chunk window.
        assert trace_fingerprint(stored.trace(APPLICATION)) == expected
        repacked = _pack(stored.trace(APPLICATION), root / "second", second)
        assert repacked.fingerprints() == {APPLICATION: expected}
        lines = StringIO()
        for execution in trace:
            write_execution(execution, lines)
        lines.seek(0)
        with StoreWriter(root / "jsonl", chunk_rows=second) as writer:
            pack_jsonl(lines, writer)
        assert TraceStore(root / "jsonl").fingerprints() == {
            APPLICATION: expected
        }


#: Fields whose value on an I/O row is content.
IO_FIELDS = ("pid", "pc", "fd", "kind", "inode", "block_start",
             "block_count")


@settings(max_examples=80, deadline=None)
@given(executions, st.data())
def test_fingerprint_sees_every_value(trace, data):
    """Changing one I/O field, one time, or one fork row's parent pid
    changes the fingerprint."""
    index = data.draw(st.integers(0, len(trace) - 1), label="execution")
    execution = trace.executions[index]
    etype = execution.columns["etype"]
    target = data.draw(st.sampled_from(("io", "time", "fork")),
                       label="target")
    if target == "io" and not np.any(etype == 0):
        target = "time"
    if target == "io":
        name = data.draw(st.sampled_from(IO_FIELDS), label="field")
        rows = np.flatnonzero(etype == 0)
    elif target == "time":
        name = "time"
        rows = np.arange(len(etype))
    else:
        name = "aux"
        rows = np.flatnonzero(etype == 1)
    row = int(data.draw(st.sampled_from(rows.tolist()), label="row"))
    columns = {key: column.copy() for key, column in
               execution.columns.items()}
    column = columns[name]
    if name == "time":
        column[row] = np.nextafter(column[row], np.inf)
    elif name == "kind":
        column[row] = (column[row] + 1) % len(AccessType)
    else:
        column[row] += 1
    changed = ApplicationTrace(APPLICATION, [
        ExecutionTrace(APPLICATION, other.execution_index, columns,
                       other.initial_pids)
        if position == index else other
        for position, other in enumerate(trace.executions)
    ])
    assert trace_fingerprint(changed) != trace_fingerprint(trace)
