"""The Ideal predictor (Figure 8, bar B).

With perfect knowledge of every idle period, the ideal predictor shuts
the disk down at the very start of every period longer than the
breakeven time and never touches shorter ones.  It still pays the
shutdown/spin-up cycle energy — which is why even the ideal predictor
eliminates only ~78 % of the energy in the paper, not 100 %.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.predictors.base import OmniscientPolicy


class OraclePolicy(OmniscientPolicy):
    """Shut down immediately in every gap longer than breakeven."""

    name = "Ideal"

    def __init__(self, breakeven: float) -> None:
        if breakeven <= 0:
            raise ConfigurationError("breakeven time must be positive")
        self.breakeven = breakeven

    def shutdown_offset(self, gap_length: float) -> Optional[float]:
        if gap_length > self.breakeven:
            return 0.0
        return None
