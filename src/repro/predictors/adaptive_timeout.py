"""Adaptive timeout — Douglis/Krishnan/Bershad-style feedback timers.

Background-section baseline (§2): "Both methods used feedback to enlarge
or to reduce the timeout based on whether the previous prediction was
correct.  If it was correct, the timeout was reduced; otherwise, it was
enlarged."

After each idle period the predictor evaluates what its timer did:

* the timer fired and the device-off window beat breakeven → correct →
  multiply the timeout by ``decrease_factor`` (< 1);
* the timer fired but the off window was too short (energy lost) →
  wrong → multiply by ``increase_factor`` (> 1);
* the timer never fired although the period exceeded breakeven (missed
  opportunity) → also reduce the timeout.

The timeout is clamped to ``[min_timeout, max_timeout]``.
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


class AdaptiveTimeoutPredictor(LocalPredictor):
    """Multiplicative-feedback timeout predictor."""

    name = "AT"

    def __init__(
        self,
        breakeven: float,
        *,
        initial_timeout: float = 10.0,
        min_timeout: float = 1.0,
        max_timeout: float = 120.0,
        decrease_factor: float = 0.5,
        increase_factor: float = 2.0,
    ) -> None:
        if breakeven <= 0:
            raise ConfigurationError("breakeven must be positive")
        if not 0 < min_timeout <= initial_timeout <= max_timeout:
            raise ConfigurationError(
                "need 0 < min_timeout <= initial_timeout <= max_timeout"
            )
        if not 0 < decrease_factor < 1 < increase_factor:
            raise ConfigurationError(
                "need decrease_factor < 1 < increase_factor"
            )
        self.breakeven = breakeven
        self.timeout = initial_timeout
        self.min_timeout = min_timeout
        self.max_timeout = max_timeout
        self.decrease_factor = decrease_factor
        self.increase_factor = increase_factor
        #: Timeout in effect for the currently open idle period.
        self._armed_timeout = initial_timeout

    def initial_intent(self, start_time: float) -> ShutdownIntent:
        self._armed_timeout = self.timeout
        return ShutdownIntent(
            delay=self.timeout, source=PredictorSource.PRIMARY
        )

    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        self._armed_timeout = self.timeout
        return ShutdownIntent(
            delay=self.timeout, source=PredictorSource.PRIMARY
        )

    def on_idle_end(self, feedback: IdleFeedback) -> None:
        armed = self._armed_timeout
        length = feedback.length
        if length > armed:
            off_window = length - armed
            if off_window > self.breakeven:
                self._scale(self.decrease_factor)
            else:
                self._scale(self.increase_factor)
        elif length > self.breakeven:
            # Long period the timer slept through: be more aggressive.
            self._scale(self.decrease_factor)

    def _scale(self, factor: float) -> None:
        self.timeout = min(
            self.max_timeout, max(self.min_timeout, self.timeout * factor)
        )
