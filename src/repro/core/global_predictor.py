"""Global Shutdown Predictor (paper §5, Figure 5).

Real systems run many processes; the disk may be shut down only when
*every* live process predicts an idle period.  Each process owns a
private local predictor that refreshes its standing intent after each of
its own disk accesses; the global predictor combines them:

* the global ready time is the **latest** of the live processes' ready
  times (all must agree before the disk spins down);
* a process whose local predictor returns "no idle" blocks the shutdown
  entirely until its next access changes its mind;
* the shutdown is *attributed* to the predictor type (primary or backup)
  of the process that decided last — the paper's §6.4 convention;
* no synchronization is needed: the currently running process always
  makes the last prediction (§5).

Per-process idle feedback (training, history bits) is computed from each
process's **own** access stream — the paper's "local number of idle
periods" — while the actual disk gaps are those of the merged stream,
handled by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro._tracing import ProcessExited, ProcessStarted
from repro.errors import SimulationError
from repro.predictors.base import (
    IdleClass,
    IdleFeedback,
    LocalPredictor,
    PredictorSource,
    ShutdownIntent,
    classify_gap,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.filter import DiskAccess


@dataclass(slots=True)
class _ProcessSlot:
    predictor: LocalPredictor
    #: Absolute time the standing intent becomes ready (None = never).
    ready_time: Optional[float]
    source: PredictorSource
    #: Completion time of the process's last access (None before first).
    last_busy_end: Optional[float]
    started_at: float


@dataclass(frozen=True, slots=True)
class GlobalDecision:
    """Earliest moment all live processes agree to shut down."""

    ready_time: float
    source: PredictorSource


class GlobalShutdownPredictor:
    """AND-combination of per-process local predictors."""

    def __init__(
        self,
        predictor_factory: Callable[[int], LocalPredictor],
        *,
        wait_window: float,
        breakeven: float,
        tracer=None,
    ) -> None:
        self._factory = predictor_factory
        self.wait_window = wait_window
        self.breakeven = breakeven
        self.tracer = tracer
        self._slots: dict[int, _ProcessSlot] = {}

    @property
    def live_pids(self) -> set[int]:
        return set(self._slots)

    def is_live(self, pid: int) -> bool:
        """Whether ``pid`` currently has a slot (no set is materialized —
        this is the hot-path liveness check of the engine's replay loop)."""
        return pid in self._slots

    def local_predictor(self, pid: int) -> LocalPredictor:
        return self._slots[pid].predictor

    def process_started(self, time: float, pid: int) -> None:
        if pid in self._slots:
            raise SimulationError(f"pid {pid} started twice")
        predictor = self._factory(pid)
        if self.tracer is not None:
            predictor.bind_tracing(self.tracer, pid)
            self.tracer.emit(ProcessStarted(time=time, pid=pid))
        intent = predictor.initial_intent(time)
        self._slots[pid] = _ProcessSlot(
            predictor=predictor,
            ready_time=self._absolute(intent, time),
            source=intent.source,
            last_busy_end=None,
            started_at=time,
        )

    def process_exited(self, time: float, pid: int) -> None:
        slot = self._slots.pop(pid, None)
        if slot is None:
            raise SimulationError(f"exit of unknown pid {pid}")
        if self.tracer is not None:
            self.tracer.emit(ProcessExited(time=time, pid=pid))
        # Deliver the final idle period (last access → exit) so trailing
        # gaps train: the table is saved at application exit (§4.2), by
        # which time an idle period longer than breakeven has been
        # observed.  mplayer's buffer-drain periods are exactly this.
        gap_start = (
            slot.last_busy_end
            if slot.last_busy_end is not None
            else slot.started_at
        )
        gap_length = time - gap_start
        if gap_length > 1e-9:
            slot.predictor.on_idle_end(
                IdleFeedback(
                    start=gap_start,
                    end=time,
                    idle_class=classify_gap(
                        gap_length, self.wait_window, self.breakeven
                    ),
                )
            )

    def on_access(self, access: DiskAccess, busy_end: float) -> None:
        """Feed one disk access to its process's local predictor.

        ``busy_end`` is the completion time of the access (arrival plus
        service, after serialization); intents are anchored to it.
        """
        slot = self._slots.get(access.pid)
        if slot is None:
            raise SimulationError(
                f"access from pid {access.pid} which is not live"
            )
        predictor = slot.predictor
        last_busy_end = slot.last_busy_end
        gap_start = (
            last_busy_end if last_busy_end is not None else slot.started_at
        )
        time = access.time
        gap_length = time - gap_start
        if gap_length > 1e-9:
            # classify_gap inlined: this runs once per disk access.
            if gap_length > self.breakeven:
                idle_class = IdleClass.LONG
            elif gap_length > self.wait_window:
                idle_class = IdleClass.SHORT
            else:
                idle_class = IdleClass.SUB_WINDOW
            predictor.on_idle_end(
                IdleFeedback(start=gap_start, end=time, idle_class=idle_class)
            )
        intent = predictor.on_access(access)
        delay = intent.delay
        slot.ready_time = None if delay is None else busy_end + delay
        slot.source = intent.source
        slot.last_busy_end = busy_end

    def decision(self) -> Optional[GlobalDecision]:
        """Current global decision given the standing per-process intents.

        ``None`` while any live process predicts "no idle".  With no live
        processes the disk may be shut down immediately — represented by
        a ready time of minus infinity that the engine clamps to the
        interval start.
        """
        slots = self._slots
        if not slots:
            return GlobalDecision(
                ready_time=float("-inf"), source=PredictorSource.PRIMARY
            )
        latest_time: Optional[float] = None
        latest_source = PredictorSource.PRIMARY
        for slot in slots.values():
            ready = slot.ready_time
            if ready is None:
                return None
            if latest_time is None or ready > latest_time:
                latest_time = ready
                latest_source = slot.source
        return GlobalDecision(ready_time=latest_time, source=latest_source)

    @staticmethod
    def _absolute(intent: ShutdownIntent, anchor: float) -> Optional[float]:
        if intent.delay is None:
            return None
        return anchor + intent.delay
