"""Property tests: trace serialization round-trips arbitrary traces."""

from io import StringIO

from hypothesis import given
from hypothesis import strategies as st

from repro.traces.events import AccessType, ExitEvent, ForkEvent, IOEvent
from repro.traces.io_format import read_executions, write_execution
from repro.traces.trace import ExecutionTrace

times = st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False)

io_events = st.builds(
    IOEvent,
    time=times,
    pid=st.integers(min_value=1, max_value=10**6),
    pc=st.integers(min_value=0, max_value=2**32 - 1),
    fd=st.integers(min_value=-1, max_value=1024),
    kind=st.sampled_from(list(AccessType)),
    inode=st.integers(min_value=0, max_value=2**40),
    block_start=st.integers(min_value=0, max_value=2**50),
    block_count=st.integers(min_value=0, max_value=1024),
)

forks = st.builds(
    ForkEvent,
    time=times,
    pid=st.integers(min_value=2, max_value=10**6),
    parent_pid=st.just(1),
)

exits = st.builds(
    ExitEvent, time=times, pid=st.integers(min_value=1, max_value=10**6)
)

events = st.lists(st.one_of(io_events, forks, exits), max_size=50)


@given(events, st.text(alphabet="abcxyz", min_size=1, max_size=10),
       st.integers(min_value=0, max_value=99))
def test_round_trip_preserves_everything(event_list, application, index):
    execution = ExecutionTrace.from_events(
        application=application,
        execution_index=index,
        events=event_list,
        initial_pids=frozenset({1}),
    )
    stream = StringIO()
    write_execution(execution, stream)
    stream.seek(0)
    restored = read_executions(stream)[0]
    assert restored.application == application
    assert restored.execution_index == index
    assert restored.initial_pids == frozenset({1})
    assert restored.events == event_list
