"""Distribution-optimal stochastic timeout.

Background-section baseline (§2): the stochastic approaches (Benini et
al., Chung et al., Qiu & Pedram, Simunic et al.) model I/O arrivals as a
random process and *pre-compute* the policy that minimizes expected
energy; the paper notes they "usually require off-line preprocessing
... and problems may arise if the workload changes".

This implementation captures that family's essence in renewal form: it
maintains an empirical histogram of observed idle-period lengths and,
after each access, arms the timeout value that minimizes the *expected*
energy of the upcoming idle period under that distribution,

    E[energy(τ)] = Σ_L p(L) · [ P_idle·min(L,τ) + 1{L>τ}·E_cycle
                                + 1{L>τ}·P_sb·max(0, L−τ−T_tr) ]

re-optimized online (the "interpolation at runtime" of Chung et al.).
With no history yet it falls back to the breakeven timeout (Karlin's
2-competitive choice).
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING

from repro.disk.power_model import DiskPowerParameters
from repro.errors import ConfigurationError
from repro.predictors.base import (
    IdleFeedback,
    LocalPredictor,
    PredictorSource,
    ShutdownIntent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.filter import DiskAccess


class StochasticTimeoutPredictor(LocalPredictor):
    """Timeout re-derived online from the empirical idle distribution."""

    name = "ST"

    def __init__(
        self,
        disk: DiskPowerParameters,
        *,
        max_samples: int = 512,
        reoptimize_every: int = 8,
    ) -> None:
        if max_samples <= 0 or reoptimize_every <= 0:
            raise ConfigurationError(
                "sample and reoptimization counts must be positive"
            )
        self.disk = disk
        self.max_samples = max_samples
        self.reoptimize_every = reoptimize_every
        self._samples: list[float] = []
        self._since_optimize = 0
        self._timeout = disk.breakeven_time()

    @property
    def timeout(self) -> float:
        return self._timeout

    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        return ShutdownIntent(
            delay=self._timeout, source=PredictorSource.PRIMARY
        )

    def initial_intent(self, start_time: float) -> ShutdownIntent:
        return ShutdownIntent(
            delay=self._timeout, source=PredictorSource.PRIMARY
        )

    def on_idle_end(self, feedback: IdleFeedback) -> None:
        bisect.insort(self._samples, feedback.length)
        if len(self._samples) > self.max_samples:
            # Drop the oldest by value-agnostic thinning: remove every
            # other sample, halving resolution but keeping the shape.
            self._samples = self._samples[::2]
        self._since_optimize += 1
        if self._since_optimize >= self.reoptimize_every:
            self._since_optimize = 0
            self._timeout = self._optimal_timeout()

    def expected_energy(self, timeout: float) -> float:
        """Expected idle-period energy when arming ``timeout``."""
        disk = self.disk
        total = 0.0
        for length in self._samples:
            if length <= timeout:
                total += disk.idle_power * length
            else:
                total += (
                    disk.idle_power * timeout
                    + disk.cycle_energy
                    + disk.standby_power
                    * max(0.0, length - timeout - disk.transition_time)
                )
        return total / len(self._samples)

    def _optimal_timeout(self) -> float:
        """Candidate timeouts need only be the observed lengths (the
        objective is piecewise linear between them) plus breakeven."""
        if not self._samples:
            return self.disk.breakeven_time()
        candidates = {0.0, self.disk.breakeven_time()}
        candidates.update(self._samples)
        candidates.add(self._samples[-1] + 1.0)  # "never" within horizon
        best = min(sorted(candidates), key=self.expected_energy)
        return max(best, 0.0)
