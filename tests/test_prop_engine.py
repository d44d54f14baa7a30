"""Metamorphic properties of the simulation engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.filter import FilterResult
from repro.config import SimulationConfig
from repro.predictors.registry import KNOWN_PREDICTORS, make_spec
from repro.sim.engine import evaluate_local_stream, run_global_execution
from repro.sim.tracing import ShutdownFired, TraceRecorder
from repro.traces.events import ExitEvent
from repro.traces.trace import ExecutionTrace
from repro.units import EPSILON
from tests.helpers import access, io_event

CONFIG = SimulationConfig()

gap_lists = st.lists(
    st.floats(min_value=0.05, max_value=60.0,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=20,
)
pc_choices = st.lists(
    st.sampled_from([0x10, 0x20, 0x30]), min_size=1, max_size=20
)
predictor_names = st.sampled_from(["TP", "LT", "PCAP", "PCAPfh", "AT"])


def _single_process_case(gaps, pcs):
    """Matching (execution, filtered, stream, end) for one process."""
    t = 0.0
    events = []
    stream = []
    for i, gap in enumerate(gaps):
        t += gap
        pc = pcs[i % len(pcs)]
        events.append(io_event(t, pid=100, pc=pc, block_start=i * 8))
        stream.append(access(t, pid=100, pc=pc))
    end = t + 30.0
    events.append(ExitEvent(time=end, pid=100))
    execution = ExecutionTrace.from_events(
        "app", 0, events, initial_pids=frozenset({100})
    )
    filtered = FilterResult(
        application="app", execution_index=0, accesses=stream
    )
    return execution, filtered, stream, end


@settings(max_examples=50, deadline=None)
@given(gap_lists, pc_choices, predictor_names)
def test_single_process_global_equals_local(gaps, pcs, name):
    """For a single-process execution, the global run's accuracy equals
    the per-process local evaluation (the AND over one process is that
    process)."""
    execution, filtered, stream, end = _single_process_case(gaps, pcs)

    local_spec = make_spec(name, CONFIG)
    local = evaluate_local_stream(
        stream, local_spec.local_factory(100), CONFIG,
        start_time=execution.start_time, end_time=end,
    )

    global_spec = make_spec(name, CONFIG)
    global_result = run_global_execution(
        execution, filtered, global_spec, CONFIG
    )
    gs = global_result.stats

    # The local stream starts at the first access (leading gap zero);
    # the global gap structure matches otherwise.
    assert gs.opportunities == local.opportunities
    assert gs.hits_primary == local.hits_primary
    assert gs.hits_backup == local.hits_backup
    assert gs.misses == local.misses


@settings(max_examples=30, deadline=None)
@given(gap_lists, pc_choices)
def test_energy_never_below_standby_floor(gaps, pcs):
    """No policy can consume less than the standby-power floor over the
    active window plus the busy energy."""
    execution, filtered, stream, end = _single_process_case(gaps, pcs)
    result = run_global_execution(
        execution, filtered, make_spec("Ideal", CONFIG), CONFIG
    )
    duration = end - execution.start_time
    floor = CONFIG.disk.standby_power * duration
    assert result.ledger.total >= floor - 1e-6


@settings(max_examples=30, deadline=None)
@given(gap_lists, pc_choices)
def test_oracle_energy_is_a_lower_bound(gaps, pcs):
    execution, filtered, stream, end = _single_process_case(gaps, pcs)
    oracle = run_global_execution(
        execution, filtered, make_spec("Ideal", CONFIG), CONFIG
    ).ledger.total
    for name in ("Base", "TP", "PCAP"):
        execution, filtered, stream, end = _single_process_case(gaps, pcs)
        other = run_global_execution(
            execution, filtered, make_spec(name, CONFIG), CONFIG
        ).ledger.total
        assert oracle <= other + 1e-6


@settings(max_examples=30, deadline=None)
@given(gap_lists, pc_choices)
def test_multistate_never_costs_energy(gaps, pcs):
    execution, filtered, stream, end = _single_process_case(gaps, pcs)
    plain = run_global_execution(
        execution, filtered, make_spec("PCAP", CONFIG), CONFIG
    ).ledger.total
    execution, filtered, stream, end = _single_process_case(gaps, pcs)
    multi = run_global_execution(
        execution, filtered, make_spec("PCAP", CONFIG), CONFIG,
        multistate=True,
    ).ledger.total
    assert multi <= plain + 1e-6


#: Idle gaps at the engine's edges: zero-length (the next request lands
#: as the disk frees up), simultaneous requests (a back-to-back queue),
#: and gaps within a few EPSILON of the wait-window W and breakeven B.
SERVICE = CONFIG.access_duration(1)
edge_idle_gaps = st.lists(
    st.one_of(
        st.sampled_from([0.0, -SERVICE]),
        st.builds(
            lambda edge, steps: edge + steps * EPSILON,
            st.sampled_from([CONFIG.wait_window, CONFIG.breakeven]),
            st.integers(min_value=-3, max_value=3),
        ),
        st.floats(min_value=0.05, max_value=30.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=20,
)


def _edge_case(idle_gaps, pcs):
    """One process whose request ``i + 1`` arrives ``idle_gaps[i]``
    after request ``i`` completes (a negative gap queues it), and whose
    execution ends the last gap's length after the last completion."""
    t = 0.0
    events = []
    stream = []
    for i, idle in enumerate(idle_gaps[:-1]):
        pc = pcs[i % len(pcs)]
        events.append(io_event(t, pid=100, pc=pc, block_start=i * 8))
        stream.append(access(t, pid=100, pc=pc))
        t = t + SERVICE + idle
    events.append(io_event(t, pid=100, pc=pcs[0], block_start=10**6))
    stream.append(access(t, pid=100, pc=pcs[0]))
    end = t + SERVICE + max(idle_gaps[-1], 0.0)
    events.append(ExitEvent(time=end, pid=100))
    execution = ExecutionTrace.from_events(
        "app", 0, events, initial_pids=frozenset({100})
    )
    filtered = FilterResult(
        application="app", execution_index=0, accesses=stream
    )
    return execution, filtered


@settings(max_examples=100, deadline=None)
@given(edge_idle_gaps, pc_choices, st.sampled_from(KNOWN_PREDICTORS),
       st.booleans())
def test_untraced_fired_rows_equal_traced_events(gaps, pcs, name,
                                                 multistate):
    """An untraced run's ``fired`` timeline is the rows of the
    ``shutdown-fired`` events a traced run emits, one per shutdown the
    stats count, bit for bit (``repr`` spells each float's shortest
    round trip)."""
    execution, filtered = _edge_case(gaps, pcs)
    untraced = run_global_execution(
        execution, filtered, make_spec(name, CONFIG), CONFIG,
        multistate=multistate,
    )
    recorder = TraceRecorder()
    run_global_execution(
        execution, filtered, make_spec(name, CONFIG), CONFIG,
        multistate=multistate, tracer=recorder,
    )
    events = [
        [e.time, e.offset, e.gap_length, e.source, e.hit]
        for e in recorder.events if isinstance(e, ShutdownFired)
    ]
    assert repr(untraced.fired) == repr(events)
    assert len(untraced.fired) == untraced.stats.shutdowns
