"""Control-theoretic shutdown timer — a PI controller on slowdown.

Cerf et al. ("When Machine Learning Meets Control Theory",
arXiv:2107.02426) argue for replacing hand-tuned power heuristics with
feedback control: pick a *setpoint* for the performance degradation you
are willing to pay, measure the degradation actually observed, and let
a proportional-integral controller steer the actuator until the error
vanishes.  The implementation idiom follows Argo NRM's legacy
``ddcmpolicy`` — a PI loop nudging a duty-cycle actuator toward a power
target, with clamped output and anti-windup on the integral term.

Here the actuator is the shutdown timeout and the measured signal is
the *irritation rate*: the exponentially-weighted fraction of finished
gaps whose shutdown fired prematurely (device-off window below the
breakeven time — the shutdowns that cost both energy and a spin-up
stall).  Each finished gap contributes one control step:

    error      = setpoint − ewma(irritation)
    integral  += error                       (clamped, anti-windup)
    timeout   −= (kp · error + ki · integral) · step   (clamped)

A positive error (fewer premature fires than budgeted) shortens the
timeout — more aggressive, more energy saved; a negative error backs
off.  The loop hovers where the observed irritation tracks the
setpoint, self-tuning per workload with no trace-specific constants.

The controller state is shared per application (all processes steer one
timer, as one device has one policy) and everything is arithmetic on
observed gap lengths — fully deterministic, so fused/pooled/resilient
replays stay bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import SimulationConfig
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


class PIControllerVariant:
    """Application-level controller state plus a per-process factory.

    Owns the shared timeout, the integral accumulator, and the
    irritation EWMA; manufactures the per-process
    :class:`PIFeedbackPredictor` instances bound to it.
    """

    #: Default gains (also the bare-name ``PI`` spec).
    DEFAULT_SETPOINT = 0.05
    DEFAULT_KP = 4.0
    DEFAULT_KI = 1.0
    DEFAULT_SMOOTHING = 0.1

    #: Anti-windup clamp on the integral accumulator.
    INTEGRAL_LIMIT = 10.0

    def __init__(
        self,
        config: SimulationConfig,
        *,
        setpoint: float = DEFAULT_SETPOINT,
        kp: float = DEFAULT_KP,
        ki: float = DEFAULT_KI,
        smoothing: float = DEFAULT_SMOOTHING,
        min_timeout: float | None = None,
        max_timeout: float = 60.0,
    ) -> None:
        if not 0.0 <= setpoint < 1.0:
            raise ConfigurationError("setpoint must be in [0, 1)")
        if kp < 0 or ki < 0 or kp + ki == 0:
            raise ConfigurationError(
                "gains must be non-negative with kp + ki > 0"
            )
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError("smoothing must be in (0, 1]")
        resolved_min = (
            max(config.wait_window, 0.5) if min_timeout is None else min_timeout
        )
        if not 0 < resolved_min <= max_timeout:
            raise ConfigurationError(
                "need 0 < min_timeout <= max_timeout"
            )
        self.setpoint = setpoint
        self.kp = kp
        self.ki = ki
        self.smoothing = smoothing
        self.min_timeout = resolved_min
        self.max_timeout = max_timeout
        self.breakeven = config.breakeven
        #: Controller step size in seconds per unit control output.
        self.step = config.breakeven
        #: The actuator: current shutdown timeout, started at the
        #: configuration's TP timer.
        self.timeout = min(max(config.timeout, resolved_min), max_timeout)
        #: Integral accumulator (anti-windup clamped).
        self.integral = 0.0
        #: EWMA of the premature-fire indicator.
        self.irritation = 0.0
        #: Control steps taken (reported as the table size).
        self.updates = 0

    @property
    def name(self) -> str:
        """Report name; non-default gains are spelled out so sweep
        labels (and artifact-cache variant fingerprints) pin the exact
        configuration."""
        if (
            self.setpoint == self.DEFAULT_SETPOINT
            and self.kp == self.DEFAULT_KP
            and self.ki == self.DEFAULT_KI
            and self.smoothing == self.DEFAULT_SMOOTHING
        ):
            return "PI"
        return (
            f"PI(sp={self.setpoint:g},kp={self.kp:g},ki={self.ki:g},"
            f"b={self.smoothing:g})"
        )

    def create_local(self, pid: int) -> "PIFeedbackPredictor":
        """A fresh per-process predictor steering the shared timer."""
        return PIFeedbackPredictor(self)

    def on_execution_end(self) -> None:
        """Keep the controller state across executions (it is the
        learned artifact)."""

    @property
    def table_size(self) -> int:
        """Control steps taken so far (the learning-progress metric)."""
        return self.updates

    def observe(self, armed_delay: float, length: float) -> None:
        """One control step from a finished gap's outcome.

        ``armed_delay`` is the timeout that governed the gap; the gap
        was an irritating premature fire when the timer went off but the
        device-off window stayed below breakeven.
        """
        fired = length > armed_delay
        premature = fired and (length - armed_delay) <= self.breakeven
        sample = 1.0 if premature else 0.0
        self.irritation += self.smoothing * (sample - self.irritation)
        error = self.setpoint - self.irritation
        self.integral = min(
            self.INTEGRAL_LIMIT,
            max(-self.INTEGRAL_LIMIT, self.integral + error),
        )
        control = self.kp * error + self.ki * self.integral
        self.timeout = min(
            self.max_timeout,
            max(self.min_timeout, self.timeout - control * self.step * 0.01),
        )
        self.updates += 1


class PIFeedbackPredictor(LocalPredictor):
    """Per-process view of the shared PI-steered timeout.

    Each access re-arms the current shared timeout; each finished
    (non sub-window) gap feeds one control step back with the delay
    that actually governed it.
    """

    name = "PI"

    def __init__(self, shared: PIControllerVariant) -> None:
        self.shared = shared
        self._armed = shared.timeout

    def _arm(self) -> ShutdownIntent:
        self._armed = self.shared.timeout
        return ShutdownIntent(
            delay=self._armed, source=PredictorSource.PRIMARY
        )

    def initial_intent(self, start_time: float) -> ShutdownIntent:
        """Arm the controller's current timeout before the first access."""
        return self._arm()

    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        """Re-arm the (possibly re-tuned) shared timeout."""
        return self._arm()

    def on_idle_end(self, feedback: IdleFeedback) -> None:
        """Feed the gap outcome back as one control step."""
        if feedback.idle_class == IdleClass.SUB_WINDOW:
            # Invisible to the controller, like every other dynamic
            # predictor's training filter (§4.1.2).
            return
        self.shared.observe(self._armed, feedback.length)
