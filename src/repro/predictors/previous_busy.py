"""Srivastava et al.'s predictive shutdown (IEEE TVLSI 1996).

Background-section baseline (§2): "Srivastava et al. suggested that the
length of an idle period could be predicted by the length of the
previous busy period.  A long idle period often followed a short busy
period."  Their filter exploits the *L-shaped* scatter of (busy, idle)
pairs in event-driven workloads: shut down after short busy periods,
stay up after long ones.

The busy period is the burst of accesses separated by sub-wait-window
gaps; a burst ends when a visible idle period starts.  The predictor
tracks the current burst's span and, after each access, predicts a long
idle period iff the burst so far is shorter than ``busy_threshold``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.predictors.base import (
    IdleClass,
    IdleFeedback,
    LocalPredictor,
    PredictorSource,
    ShutdownIntent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.filter import DiskAccess


class PreviousBusyPredictor(LocalPredictor):
    """Shut down after short busy bursts (the L-shape filter)."""

    name = "PB"

    def __init__(
        self,
        *,
        busy_threshold: float = 2.0,
        wait_window: float = 1.0,
    ) -> None:
        if busy_threshold <= 0:
            raise ConfigurationError("busy threshold must be positive")
        if wait_window < 0:
            raise ConfigurationError("wait window must be non-negative")
        self.busy_threshold = busy_threshold
        self.wait_window = wait_window
        self._burst_start: float | None = None
        self._last_access: float | None = None

    def begin_execution(self, start_time: float) -> None:
        self._burst_start = None
        self._last_access = None

    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        if self._burst_start is None:
            self._burst_start = access.time
        self._last_access = access.time
        busy_span = access.time - self._burst_start
        if busy_span < self.busy_threshold:
            return ShutdownIntent(
                delay=self.wait_window, source=PredictorSource.PRIMARY
            )
        return ShutdownIntent.never()

    def on_idle_end(self, feedback: IdleFeedback) -> None:
        # A visible idle period ends the burst; sub-window gaps don't.
        if feedback.idle_class != IdleClass.SUB_WINDOW:
            self._burst_start = None
