"""Workload generator machinery: FileSpace, TraceBuilder, build_execution."""

import pytest

from repro.errors import ConfigurationError
from repro.traces.events import ExitEvent, ForkEvent, IOEvent
from repro.workloads.activities import (
    HelperProcess,
    IOStep,
    Phase,
    Routine,
    RoutineMix,
    Think,
)
from repro.workloads.base import (
    MAIN_PID,
    ApplicationSpec,
    FileSpace,
    TraceBuilder,
    build_application_trace,
    build_execution,
)


def _tiny_spec(**overrides) -> ApplicationSpec:
    steps = (
        IOStep(function="work_read", file="data", fd=3, blocks=2, fresh=True),
    )
    mix = RoutineMix()
    mix.add(Routine("work", (Phase(steps, Think.AWAY),)), 1)
    defaults = dict(
        name="tinyapp",
        executions=3,
        startup=Routine("startup", (Phase(steps, Think.TYPING),)),
        closing=None,
        mix=mix,
        actions_mean=4.0,
        actions_sd=0.5,
        novel_probability=0.0,
    )
    defaults.update(overrides)
    return ApplicationSpec(**defaults)


# ---------------------------------------------------------------- FileSpace
def test_inode_stable_across_executions():
    a = FileSpace("app", 0)
    b = FileSpace("app", 5)
    assert a.inode("config") == b.inode("config")


def test_inodes_differ_across_apps_and_files():
    space = FileSpace("app", 0)
    other = FileSpace("other", 0)
    assert space.inode("a") != space.inode("b")
    assert space.inode("a") != other.inode("a")


def test_hot_range_is_stable():
    space = FileSpace("app", 0)
    assert space.hot_range("f", 4) == space.hot_range("f", 4)


def test_fresh_ranges_never_repeat_within_execution():
    space = FileSpace("app", 0)
    first = space.fresh_range("f", 8)
    second = space.fresh_range("f", 8)
    assert first[0] + first[1] <= second[0]


def test_fresh_ranges_differ_across_executions():
    a = FileSpace("app", 0).fresh_range("f", 8)
    b = FileSpace("app", 1).fresh_range("f", 8)
    assert a != b


def test_fresh_never_overlaps_hot():
    space = FileSpace("app", 3)
    hot_start, hot_len = space.hot_range("f", 16)
    fresh_start, _ = space.fresh_range("f", 16)
    assert fresh_start >= hot_start + 4096


def test_oversized_hot_read_rejected():
    with pytest.raises(ConfigurationError):
        FileSpace("app", 0).hot_range("f", 10**6)


# ------------------------------------------------------------- TraceBuilder
def test_emit_steps_respects_repeat_and_gaps():
    builder = TraceBuilder("app", 0)
    steps = (
        IOStep(function="loop", file="f", fd=3, pre_gap=0.01, repeat=5),
    )
    end = builder.emit_steps(1.0, MAIN_PID, steps)
    assert len(builder.rows) == 5
    assert end == pytest.approx(1.05)


def test_emit_steps_routes_named_process():
    builder = TraceBuilder("app", 0)
    steps = (
        IOStep(function="main_read", file="f", fd=3),
        IOStep(function="aux_read", file="g", fd=4, process="aux"),
    )
    builder.emit_steps(0.0, MAIN_PID, steps, {"aux": 2000})
    execution = builder.finish(initial_pids=frozenset({MAIN_PID, 2000}))
    assert execution.columns["pid"].tolist() == [MAIN_PID, 2000]


def test_emit_steps_unknown_process_rejected():
    builder = TraceBuilder("app", 0)
    steps = (IOStep(function="x", file="f", fd=3, process="ghost"),)
    with pytest.raises(ConfigurationError):
        builder.emit_steps(0.0, MAIN_PID, steps, {})


# ---------------------------------------------------------- build_execution
def test_execution_is_deterministic():
    spec = _tiny_spec()
    first = build_execution(spec, 0)
    second = build_execution(spec, 0)
    assert first.events == second.events


def test_executions_differ_by_index():
    spec = _tiny_spec()
    assert build_execution(spec, 0).events != build_execution(spec, 1).events


def test_execution_validates_and_ends_with_exit():
    execution = build_execution(_tiny_spec(), 0)
    assert isinstance(execution.events[-1], ExitEvent)
    assert execution.events[-1].pid == MAIN_PID


def test_helpers_forked_and_exited():
    helper = HelperProcess(
        name="aux",
        steps=(IOStep(function="aux_read", file="g", fd=9, fresh=True),),
        participation=1.0,
    )
    execution = build_execution(_tiny_spec(helpers=(helper,)), 0)
    forks = [e for e in execution.events if isinstance(e, ForkEvent)]
    exits = [e for e in execution.events if isinstance(e, ExitEvent)]
    assert len(forks) == 1
    assert len(exits) == 2
    helper_io = [
        e
        for e in execution.events
        if isinstance(e, IOEvent) and e.pid == forks[0].pid
    ]
    assert helper_io  # participated at least once (aways precede actions)


def test_scale_shrinks_actions_and_executions():
    spec = _tiny_spec()
    full = build_application_trace(spec, scale=1.0)
    small = build_application_trace(spec, scale=0.4)
    assert len(small.executions) < len(full.executions)
    assert small.total_io_count < full.total_io_count


def test_invalid_scale_rejected():
    with pytest.raises(ConfigurationError):
        build_execution(_tiny_spec(), 0, scale=0.0)


def test_novel_routines_touch_unique_pcs():
    spec = _tiny_spec(novel_probability=0.9)
    execution = build_execution(spec, 0)
    other = build_execution(spec, 1)
    pcs_a = {e.pc for e in execution.io_events}
    pcs_b = {e.pc for e in other.io_events}
    # Novel PCs are execution-specific: symmetric difference non-empty.
    assert pcs_a ^ pcs_b


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        _tiny_spec(executions=0)
    with pytest.raises(ConfigurationError):
        _tiny_spec(novel_probability=1.5)
    with pytest.raises(ConfigurationError):
        _tiny_spec(actions_mean=0.0)
