"""Synthetic extreme workloads — PCAP's best and worst cases.

The paper's premise is that "a history of events is likely to repeat in
the future due to repetitive behavior of the applications" (§2.1).
These models characterize the predictor's envelope outside the desktop
suite:

* ``clockwork``  — perfectly periodic behaviour: one fixed PC path, one
  fixed think time.  Everything a path predictor could wish for; PCAP's
  coverage approaches 100 % after one training period.
* ``chaos``      — adversarial behaviour: every burst uses fresh, never
  repeated PCs and i.i.d. think times.  Signatures never recur, so
  PCAP's primary predictor learns nothing and the backup timeout is all
  there is — PCAP degrades *to* TP, never below it (the §4.3 safety
  argument).
* ``shapeshifter`` — regime change: clockwork behaviour whose PC paths
  are replaced wholesale halfway through the trace history (the paper's
  recompilation / changed-user-behaviour scenario, §4.2: "the old
  entries can be replaced ... a simple LRU mechanism would be
  sufficient").

Used by the predictor-envelope benchmark and available to users probing
their own predictors.
"""

from __future__ import annotations

from repro.traces.events import AccessType, ExitEvent, IOEvent
from repro.traces.trace import ApplicationTrace, ExecutionTrace
from repro.workloads.rng import make_rng, stable_pc

#: One execution's structure: bursts of I/O separated by think times.
_BURST_LENGTH = 6
_BURSTS_PER_EXECUTION = 10
_THINK_SECONDS = 40.0
_MAIN_PID = 1000


def _execution(
    name: str,
    index: int,
    pcs_for_burst,
    think_for_burst,
) -> ExecutionTrace:
    events: list = []
    t = 0.5
    block = index * 10_000_000
    for burst in range(_BURSTS_PER_EXECUTION):
        for step, pc in enumerate(pcs_for_burst(index, burst)):
            t += 0.05
            block += 2
            events.append(
                IOEvent(
                    time=t, pid=_MAIN_PID, pc=pc, fd=3,
                    kind=AccessType.READ,
                    inode=7, block_start=block, block_count=2,
                )
            )
        t += think_for_burst(index, burst)
    events.append(ExitEvent(time=t + 0.01, pid=_MAIN_PID))
    execution = ExecutionTrace.from_events(
        name, index, events, initial_pids=frozenset({_MAIN_PID})
    )
    execution.validate()
    return execution


def build_clockwork(executions: int = 12) -> ApplicationTrace:
    """Perfectly periodic: fixed PC path, fixed think time."""
    path = [stable_pc("clockwork", f"step{i}") for i in range(_BURST_LENGTH)]

    def pcs(index: int, burst: int):
        return path

    def think(index: int, burst: int) -> float:
        return _THINK_SECONDS

    return ApplicationTrace(
        "clockwork",
        [
            _execution("clockwork", index, pcs, think)
            for index in range(executions)
        ],
    )


def build_chaos(executions: int = 12) -> ApplicationTrace:
    """Adversarial: never-repeating PCs, i.i.d. lognormal think times."""

    def pcs(index: int, burst: int):
        return [
            stable_pc("chaos", f"{index}/{burst}/{i}")
            for i in range(_BURST_LENGTH)
        ]

    def think(index: int, burst: int) -> float:
        rng = make_rng("chaos-think", index, burst)
        return float(
            _THINK_SECONDS * rng.lognormal(mean=0.0, sigma=0.6)
        )

    return ApplicationTrace(
        "chaos",
        [
            _execution("chaos", index, pcs, think)
            for index in range(executions)
        ],
    )


def build_shapeshifter(executions: int = 12) -> ApplicationTrace:
    """Clockwork whose code is 'recompiled' halfway through history."""
    first = [stable_pc("shape-v1", f"step{i}") for i in range(_BURST_LENGTH)]
    second = [stable_pc("shape-v2", f"step{i}") for i in range(_BURST_LENGTH)]
    switch = executions // 2

    def pcs(index: int, burst: int):
        return first if index < switch else second

    def think(index: int, burst: int) -> float:
        return _THINK_SECONDS

    return ApplicationTrace(
        "shapeshifter",
        [
            _execution("shapeshifter", index, pcs, think)
            for index in range(executions)
        ],
    )


def build_extremes(executions: int = 12) -> dict[str, ApplicationTrace]:
    """The envelope workloads as a suite (including the PC-aliasing
    adversary of :mod:`repro.workloads.aliasing`)."""
    # Late import: aliasing reuses this module's _execution builder.
    from repro.workloads.aliasing import build_pc_alias

    return {
        "clockwork": build_clockwork(executions),
        "chaos": build_chaos(executions),
        "shapeshifter": build_shapeshifter(executions),
        "pc_alias": build_pc_alias(executions),
    }
