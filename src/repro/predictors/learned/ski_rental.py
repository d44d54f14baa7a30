"""Learning-augmented ski rental — PCAP's table as untrusted advice.

Shutting a disk down is the ski-rental problem: keep paying idle power
("rent") or pay the spin-down/spin-up cycle energy ("buy").  Without
predictions the optimal deterministic policy buys at the breakeven time
(2-competitive); Antoniadis et al. ("Learning-Augmented Dynamic Power
Management with Multiple States via New Ski Rental Bounds",
arXiv:2110.13116) show how an untrusted per-gap prediction can be
consumed with a *robustness parameter* λ ∈ [0, 1] that trades
consistency (how close to optimal when the advice is right) against
robustness (the worst case when it is wrong):

* advice says the gap is **long**  → buy early, at ``λ · breakeven``;
* advice says the gap is **short** → hedge, buying only at
  ``breakeven / λ``.

``λ = 0`` trusts the advice completely (shut down at the wait-window on
a predicted-long gap, never otherwise — exactly PCAP with its backup
timeout disabled); ``λ = 1`` ignores it (both branches collapse to the
breakeven timeout, the classic 2-competitive ski-rental policy, TP-BE).

The advice source *is* the paper's PCAP machinery: a
:class:`~repro.core.variants.PCAPVariant` with the backup timeout
disabled provides the per-PC-signature long-gap prediction, trained
exactly as in §4 — so LearnedSkiRental is literally "PCAP's table,
consumed with provable robustness".  Prediction hits are attributed to
the PRIMARY source (the advice acted), hedge-timer shutdowns to BACKUP.

:func:`multistate_schedule` extends the same λ-hedging to a ladder of
intermediate power states (the Antoniadis et al. multi-state setting),
matching :mod:`repro.disk.multistate`'s low-power-idle extension.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.config import SimulationConfig
from repro.core.variants import PCAPVariant, PCAPVariantConfig
from repro.errors import ConfigurationError
from repro.predictors.base import (
    IdleFeedback,
    LocalPredictor,
    PredictorSource,
    ShutdownIntent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.filter import DiskAccess


def multistate_schedule(
    states: Sequence[tuple[float, float]],
    lam: float,
    *,
    advice_long: bool,
) -> list[float]:
    """λ-robust transition times for a ladder of low-power states.

    ``states`` lists the deeper states as ``(power_watts,
    transition_energy_joules)`` pairs, relative to a top idle state of
    power ``states[0][0]``-or-higher; the first entry is the top
    (highest-power) state with zero transition cost.  The classic
    deterministic multi-state policy drops into state *i* once the gap
    has lasted ``cᵢ / (p₀ − pᵢ)`` — the point where staying in the top
    state has cost as much as the transition.  Following Antoniadis et
    al., binary advice scales every threshold by ``λ`` when the gap is
    predicted long and ``1/λ`` when predicted short; ``λ = 1`` recovers
    the advice-free schedule.

    Returns the transition times for ``states[1:]``, non-decreasing.
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError("lambda must be in [0, 1]")
    if len(states) < 2:
        return []
    top_power = states[0][0]
    schedule: list[float] = []
    previous = 0.0
    for power, transition_energy in states[1:]:
        if power >= top_power:
            raise ConfigurationError(
                "ladder states must strictly decrease in power"
            )
        if transition_energy < 0:
            raise ConfigurationError("transition energy must be non-negative")
        threshold = transition_energy / (top_power - power)
        if advice_long:
            threshold *= lam
        elif lam > 0.0:
            threshold /= lam
        else:
            threshold = float("inf")
        previous = max(previous, threshold)
        schedule.append(previous)
    return schedule


class LearnedSkiRentalVariant:
    """Application-level ski-rental state: the shared advice table.

    Wraps a :class:`~repro.core.variants.PCAPVariant` (backup timeout
    disabled — the advice must be pure table signal) and manufactures
    the per-process :class:`LearnedSkiRentalPredictor` instances.
    """

    #: Default robustness parameter (also the bare-name ``SKI`` spec).
    DEFAULT_LAMBDA = 0.5

    def __init__(
        self,
        config: SimulationConfig,
        *,
        lam: float = DEFAULT_LAMBDA,
    ) -> None:
        if not 0.0 <= lam <= 1.0:
            raise ConfigurationError("lambda must be in [0, 1]")
        self.lam = lam
        self.breakeven = config.breakeven
        self.wait_window = config.wait_window
        self.advice = PCAPVariant(
            PCAPVariantConfig(
                wait_window=config.wait_window, backup_timeout=None
            )
        )

    @property
    def name(self) -> str:
        """Report name; a non-default λ is spelled out so sweep labels
        (and artifact-cache variant fingerprints) pin the exact
        configuration."""
        if self.lam == self.DEFAULT_LAMBDA:
            return "SKI"
        return f"SKI(l={self.lam:g})"

    def create_local(self, pid: int) -> "LearnedSkiRentalPredictor":
        """A fresh per-process predictor sharing the advice table."""
        return LearnedSkiRentalPredictor(
            self.advice.create_local(pid),
            lam=self.lam,
            breakeven=self.breakeven,
            wait_window=self.wait_window,
        )

    def on_execution_end(self) -> None:
        """Apply the advice table's reuse policy at application exit."""
        self.advice.on_execution_end()

    @property
    def table_size(self) -> int:
        """Size of the shared advice (PCAP) table."""
        return self.advice.table_size


class LearnedSkiRentalPredictor(LocalPredictor):
    """Per-process λ-robust ski rental over a PCAP advice predictor.

    Every access is first shown to the inner PCAP predictor; whether its
    table matched decides which hedged intent stands for the following
    gap.  Training (``on_idle_end``) is delegated wholesale, so the
    advice learns exactly as §4's PCAP does.
    """

    name = "SKI"

    def __init__(
        self,
        advice: LocalPredictor,
        *,
        lam: float,
        breakeven: float,
        wait_window: float,
    ) -> None:
        if not 0.0 <= lam <= 1.0:
            raise ConfigurationError("lambda must be in [0, 1]")
        if breakeven <= 0:
            raise ConfigurationError("breakeven must be positive")
        if wait_window < 0:
            raise ConfigurationError("wait window must be non-negative")
        self.advice = advice
        self.lam = lam
        self.breakeven = breakeven
        self.wait_window = wait_window
        # Both hedged intents are parameter-determined: build them once.
        self._trust_intent = ShutdownIntent(
            delay=max(wait_window, lam * breakeven),
            source=PredictorSource.PRIMARY,
        )
        self._hedge_intent = (
            ShutdownIntent(delay=breakeven / lam, source=PredictorSource.BACKUP)
            if lam > 0.0
            else ShutdownIntent.never()
        )

    def bind_tracing(self, tracer, pid: int) -> None:
        """Attach a tracing sink to this wrapper and the advice source."""
        super().bind_tracing(tracer, pid)
        self.advice.bind_tracing(tracer, pid)

    def begin_execution(self, start_time: float) -> None:
        """Reset the advice predictor's per-execution state."""
        self.advice.begin_execution(start_time)

    def end_execution(self, end_time: float) -> None:
        """Forward the execution end to the advice predictor."""
        self.advice.end_execution(end_time)

    def initial_intent(self, start_time: float) -> ShutdownIntent:
        """No advice before the first access: stand on the hedge timer."""
        self.advice.initial_intent(start_time)
        return self._hedge_intent

    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        """Consume the advice for this access and hedge with λ."""
        if self.advice.on_access(access).predicts_shutdown:
            return self._trust_intent
        return self._hedge_intent

    def on_idle_end(self, feedback: IdleFeedback) -> None:
        """Train the advice table on the finished gap (PCAP §4 rules)."""
        self.advice.on_idle_end(feedback)
