"""Local shutdown-predictor protocol.

Every predictor in this library — PCAP and all baselines — is a *local*
predictor attached to one process, driven by the simulation engine with
three kinds of calls:

* :meth:`LocalPredictor.initial_intent` when the process appears;
* :meth:`LocalPredictor.on_idle_end` when a request-free gap in the
  process's own disk-access stream ends (training feedback);
* :meth:`LocalPredictor.on_access` right after each of the process's disk
  accesses, returning the new standing :class:`ShutdownIntent`.

A :class:`ShutdownIntent` is the predictor's standing decision until its
process performs the next I/O: *"if the disk stays idle, shut it down
``delay`` seconds after this access completes"* (or never).  Immediate
predictors return the wait-window as the delay — an access arriving
inside the window cancels the shutdown, which is exactly the paper's
sliding wait-window filter.  Timeout predictors return their timeout.

``source`` distinguishes the *primary* mechanism (PCAP's table match, the
learning tree, the timer of a standalone timeout predictor) from the
*backup* timeout a training predictor falls back on; Figures 9 and 10
attribute hits and misses to whichever made the decision.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.filter import DiskAccess


class PredictorSource(enum.Enum):
    """Which mechanism produced a shutdown decision."""

    PRIMARY = "primary"
    BACKUP = "backup"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PredictorSource.{self.name}"


class IdleClass(enum.Enum):
    """Paper taxonomy of a finished idle gap.

    ``SUB_WINDOW`` gaps (not longer than the wait-window) are invisible to
    history and training — they are filtered at run time (§4.1.2).
    ``SHORT`` gaps fall between the wait-window and the breakeven time
    (history bit 0).  ``LONG`` gaps exceed the breakeven time (history bit
    1) and are the shutdown opportunities of Table 1.
    """

    SUB_WINDOW = "sub_window"
    SHORT = "short"
    LONG = "long"


def classify_gap(
    length: float, wait_window: float, breakeven: float
) -> IdleClass:
    """Classify a finished gap per the paper taxonomy (see IdleClass)."""
    if length > breakeven:
        return IdleClass.LONG
    if length > wait_window:
        return IdleClass.SHORT
    return IdleClass.SUB_WINDOW


@dataclass(frozen=True, slots=True)
class IdleFeedback:
    """A finished gap in the process's own access stream."""

    start: float
    end: float
    idle_class: IdleClass

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class ShutdownIntent:
    """Standing decision: shut down ``delay`` seconds after the triggering
    event (access completion, or process start for the initial intent)
    unless another I/O intervenes.

    ``delay`` of ``None`` means "keep the disk spinning".
    """

    delay: Optional[float]
    source: PredictorSource = PredictorSource.PRIMARY

    def __post_init__(self) -> None:
        if self.delay is not None and self.delay < 0:
            raise ValueError("shutdown delay must be non-negative")

    @staticmethod
    def never() -> "ShutdownIntent":
        return ShutdownIntent(delay=None)

    @property
    def predicts_shutdown(self) -> bool:
        return self.delay is not None


class OmniscientPolicy(ABC):
    """Gap-level policy with perfect knowledge of the gap it is deciding.

    Used for the Ideal predictor and the Base (always-on) system of
    Figure 8, which are not realizable online: the engine tells the
    policy the full gap length and asks where (if anywhere) to shut down.
    """

    #: Short identifier used in reports ("Ideal", "Base").
    name: str = "omniscient"

    @abstractmethod
    def shutdown_offset(self, gap_length: float) -> Optional[float]:
        """Offset from the gap start at which to shut down, or ``None``."""


class LocalPredictor(ABC):
    """Per-process shutdown predictor.

    Instances may share state (PCAP's prediction table is associated with
    the *application* and shared by its processes and executions, §4.2);
    everything per-process (the current signature, history register,
    timers) lives in the instance.
    """

    #: Short identifier used in reports ("TP", "LT", "PCAP", ...).
    name: str = "base"

    #: Tracing sink and owning pid, bound by the driver when structured
    #: tracing is enabled (see :mod:`repro.sim.tracing`).  ``None`` means
    #: disabled — emit sites guard on it and pay only the check.
    tracer = None
    trace_pid: Optional[int] = None

    def bind_tracing(self, tracer, pid: int) -> None:
        """Attach a tracing sink; predictors emit decision events into it."""
        self.tracer = tracer
        self.trace_pid = pid

    def begin_execution(self, start_time: float) -> None:
        """A new execution of the owning application started."""

    def end_execution(self, end_time: float) -> None:
        """The owning application exited."""

    def initial_intent(self, start_time: float) -> ShutdownIntent:
        """Standing intent before the process's first disk access.

        Default: behave like the backup timeout would — no information yet,
        so never predict.  Timeout-based predictors override this.
        """
        return ShutdownIntent.never()

    @abstractmethod
    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        """The process performed ``access``; return the new standing intent."""

    def on_idle_end(self, feedback: IdleFeedback) -> None:
        """The gap preceding the process's next access just ended."""
