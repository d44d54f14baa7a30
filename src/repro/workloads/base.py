"""Workload model machinery: file space, trace builder, application model.

An :class:`ApplicationSpec` declares an application's behaviour —
startup/closing routines, a weighted routine repertoire, think-time
distributions, helper processes, and a novelty rate — and
:func:`build_execution` turns it into one :class:`ExecutionTrace`.
Everything is deterministic given (application, execution index).

Why this reproduces the paper's trace properties:

* routines reference *functions* → stable PCs across executions (the
  foundation of PCAP's cross-execution table reuse);
* cache-hot steps re-read the same file blocks (filtered out by the page
  cache) while ``fresh`` steps read new blocks (cache misses → disk
  accesses), so the *disk-level* PC paths are dominated by each routine's
  stable fresh-read PCs;
* think times are bimodal (quick interaction vs walking away), giving a
  10 s timeout predictor its characteristic ~50 % coverage at near-zero
  mispredictions;
* multi-phase routines whose prefix equals another routine create genuine
  subpath aliasing (§4.1's "save as" example);
* novel routines (unique PCs) model never-repeating behaviour that keeps
  every trained predictor partly in training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.trace import KIND_CODE, ExecutionTrace, columns_from_rows
from repro.workloads.activities import (
    HelperProcess,
    IOStep,
    Phase,
    Routine,
    RoutineMix,
    Think,
    ThinkTimeModel,
)
from repro.workloads.rng import make_rng, stable_pc, stable_seed

#: Pid layout inside one execution.
MAIN_PID = 1000
FIRST_HELPER_PID = 1001

#: Block-address layout: each logical file owns a 2^28-block region; the
#: first 4096 blocks are the "hot" area (re-read content), the rest is
#: carved into per-execution fresh areas (never-before-seen content).
_FILE_REGION_BITS = 28
_HOT_AREA_BLOCKS = 4096
_FRESH_AREA_BLOCKS = 1 << 21


@lru_cache(maxsize=None)
def _inode(application: str, name: str) -> int:
    """Stable inode of a logical file (memoized: one SHA-256 per name)."""
    return stable_seed("inode", application, name) & 0xFFFFF


class FileSpace:
    """Stable mapping of logical file names to inodes and block ranges."""

    def __init__(self, application: str, execution_index: int) -> None:
        self.application = application
        self.execution_index = execution_index
        self._fresh_cursor: dict[str, int] = {}

    def inode(self, name: str) -> int:
        """Stable inode of a logical file (same in every execution)."""
        return _inode(self.application, name)

    def _region_base(self, name: str) -> int:
        return self.inode(name) << _FILE_REGION_BITS

    def hot_range(self, name: str, blocks: int) -> tuple[int, int]:
        """The file's first ``blocks`` blocks (cache-hot on re-read)."""
        if blocks > _HOT_AREA_BLOCKS:
            raise ConfigurationError(
                f"hot read of {blocks} blocks exceeds the hot area"
            )
        return self._region_base(name), blocks

    def fresh_range(self, name: str, blocks: int) -> tuple[int, int]:
        """``blocks`` never-before-seen blocks of the file."""
        cursor = self._fresh_cursor.get(name, 0)
        if cursor + blocks > _FRESH_AREA_BLOCKS:
            cursor = 0  # wrap within this execution's fresh area
        start = (
            self._region_base(name)
            + _HOT_AREA_BLOCKS
            + self.execution_index * _FRESH_AREA_BLOCKS
            + cursor
        )
        self._fresh_cursor[name] = cursor + blocks
        return start, blocks


class TraceBuilder:
    """Accumulates the rows of one execution and finalizes the trace.

    Rows are tuples laid out as :data:`~repro.traces.trace.COLUMNS`;
    :meth:`finish` turns them into the execution's columns.
    """

    def __init__(self, application: str, execution_index: int) -> None:
        self.application = application
        self.execution_index = execution_index
        self.files = FileSpace(application, execution_index)
        self.rows: list[tuple] = []
        #: Latest event time emitted so far.
        self.latest_time: float = 0.0

    def fork(self, time: float, pid: int, parent: int) -> None:
        self.rows.append((1, time, pid, 0, 0, 0, 0, 0, 0, parent))

    def exit(self, time: float, pid: int) -> None:
        self.rows.append((2, time, pid, 0, 0, 0, 0, 0, 0, 0))

    def emit_steps(
        self,
        start: float,
        pid: int,
        steps: tuple[IOStep, ...],
        pid_map: Optional[dict[str, int]] = None,
    ) -> float:
        """Emit a burst of steps starting at ``start``; returns the time
        of the last event.  Steps naming a ``process`` are routed to that
        helper's pid via ``pid_map``."""
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

    def finish(self, initial_pids: frozenset[int]) -> ExecutionTrace:
        """The execution in canonical order, validated."""
        execution = ExecutionTrace(
            self.application, self.execution_index,
            columns_from_rows(self.rows), initial_pids,
        ).sorted()
        execution.validate()
        return execution


@dataclass(frozen=True, slots=True)
class ApplicationSpec:
    """Complete behavioural description of one application."""

    name: str
    executions: int
    startup: Routine
    closing: Optional[Routine]
    mix: RoutineMix
    think_model: ThinkTimeModel = field(default_factory=ThinkTimeModel)
    helpers: tuple[HelperProcess, ...] = ()
    actions_mean: float = 30.0
    actions_sd: float = 6.0
    #: Probability that an action is a never-repeating novel routine.
    novel_probability: float = 0.10
    #: Shape of generated novel routines (steps, think weights).
    novel_steps: int = 4
    novel_away_probability: float = 0.7

    def __post_init__(self) -> None:
        if self.executions <= 0:
            raise ConfigurationError("executions must be positive")
        if not 0.0 <= self.novel_probability < 1.0:
            raise ConfigurationError("novel probability must be in [0, 1)")
        if self.actions_mean <= 0:
            raise ConfigurationError("actions_mean must be positive")


def _novel_routine(
    spec: ApplicationSpec,
    execution_index: int,
    ordinal: int,
    rng: np.random.Generator,
) -> Routine:
    """A routine with unique PCs: behaviour never seen before or again."""
    tag = f"novel_{execution_index}_{ordinal}"
    steps = tuple(
        IOStep(
            function=f"{tag}_step{k}",
            file=f"{tag}_file",
            fd=9,
            blocks=2,
            fresh=True,
            pre_gap=0.01,
        )
        for k in range(spec.novel_steps)
    )
    think = (
        Think.AWAY
        if rng.random() < spec.novel_away_probability
        else Think.BROWSE
    )
    return Routine(name=tag, phases=(Phase(steps=steps, think=think),))


def build_execution(
    spec: ApplicationSpec, execution_index: int, *, scale: float = 1.0
) -> ExecutionTrace:
    """Generate one deterministic execution of ``spec``."""
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    rng = make_rng(spec.name, execution_index, "exec")
    builder = TraceBuilder(spec.name, execution_index)
    helper_pids = {
        helper.name: FIRST_HELPER_PID + i
        for i, helper in enumerate(spec.helpers)
    }

    t = 0.02
    for helper in spec.helpers:
        builder.fork(t, helper_pids[helper.name], MAIN_PID)
        t += 0.005

    # Startup: the application loads its libraries and configuration.
    for phase in spec.startup.phases:
        t = builder.emit_steps(t, MAIN_PID, phase.steps, helper_pids)
        t += spec.think_model.sample(phase.think, rng)

    mean = spec.actions_mean * scale
    sd = spec.actions_sd * max(scale, 0.25)
    actions = max(1, int(round(rng.normal(mean, sd))))
    previous: Optional[Routine] = None
    novel_count = 0
    # Helper daemons do their disk work when the user *returns from* a
    # pause (cookies of the next page, autosave after an absence), so
    # their own idle gaps end right after a long think — shadowing the
    # main process's idle-period structure without inventing mid-length
    # gaps of their own.
    returned_from_pause = False
    for _ in range(actions):
        if rng.random() < spec.novel_probability:
            chosen = _novel_routine(spec, execution_index, novel_count, rng)
            novel_count += 1
        else:
            chosen = spec.mix.choose(rng, previous)
            previous = chosen
        for helper in spec.helpers:
            chance = (
                helper.participation
                if returned_from_pause
                else helper.background_participation
            )
            if helper.steps and rng.random() < chance:
                builder.emit_steps(
                    t + helper.delay, helper_pids[helper.name], helper.steps
                )
        for phase in chosen.phases:
            t = builder.emit_steps(t, MAIN_PID, phase.steps, helper_pids)
            t += spec.think_model.sample(phase.think, rng)
        returned_from_pause = chosen.phases[-1].think in (
            Think.BROWSE,
            Think.HESITATE,
            Think.AWAY,
        )

    if spec.closing is not None:
        for phase in spec.closing.phases:
            t = builder.emit_steps(t, MAIN_PID, phase.steps, helper_pids)
            t += spec.think_model.sample(phase.think, rng)

    # Exits come after every emitted event (a helper's delayed I/O may
    # outlast the main process's final burst).
    t = max(t, builder.latest_time)
    for helper in spec.helpers:
        t += 0.003
        builder.exit(t, helper_pids[helper.name])
    t += 0.003
    builder.exit(t, MAIN_PID)
    return builder.finish(initial_pids=frozenset({MAIN_PID}))


def execution_count(spec: ApplicationSpec, *, scale: float = 1.0) -> int:
    """Number of executions ``spec`` generates at ``scale`` (at least 1)."""
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    return max(1, int(round(spec.executions * scale)))


def build_application_trace(spec: ApplicationSpec, *, scale: float = 1.0):
    """All executions of ``spec`` (count scaled, at least one)."""
    from repro.traces.trace import ApplicationTrace

    return ApplicationTrace(
        application=spec.name,
        executions=[
            build_execution(spec, index, scale=scale)
            for index in range(execution_count(spec, scale=scale))
        ],
    )
