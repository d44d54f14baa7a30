"""Exponential-average predictive shutdown — Hwang & Wu (TODAES 2000).

Background-section baseline (§2): the length of the next idle period is
predicted as a weighted average of the previous prediction and the
previous actual idle period,

    I_{n+1} = a * actual_n + (1 - a) * I_n .

When the predicted length exceeds the breakeven time the disk is shut
down as soon as it becomes idle (we apply the same sliding wait-window as
the other dynamic predictors, per the paper's remark that the filter "can
be applied to all dynamic predictors").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.predictors.base import (
    IdleFeedback,
    LocalPredictor,
    PredictorSource,
    ShutdownIntent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.filter import DiskAccess


class ExponentialAveragePredictor(LocalPredictor):
    """Hwang & Wu's exponentially-weighted idle-length predictor."""

    name = "EXP"

    def __init__(
        self,
        breakeven: float,
        *,
        alpha: float = 0.5,
        wait_window: float = 1.0,
        initial_prediction: float = 0.0,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        if breakeven <= 0:
            raise ConfigurationError("breakeven must be positive")
        if wait_window < 0:
            raise ConfigurationError("wait window must be non-negative")
        self.breakeven = breakeven
        self.alpha = alpha
        self.wait_window = wait_window
        self.predicted_idle = initial_prediction

    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        if self.predicted_idle > self.breakeven:
            return ShutdownIntent(
                delay=self.wait_window, source=PredictorSource.PRIMARY
            )
        return ShutdownIntent.never()

    def on_idle_end(self, feedback: IdleFeedback) -> None:
        self.predicted_idle = (
            self.alpha * feedback.length
            + (1.0 - self.alpha) * self.predicted_idle
        )
