"""The timeout predictor (TP) — the paper's §2 workhorse baseline.

A timer starts whenever the process becomes idle; when it expires the
disk is shut down.  The paper uses a 10-second timer ("low mispredictions
and good energy savings in our applications") both standalone and as the
backup predictor inside PCAP and LT; §6.3 also evaluates a timeout equal
to the breakeven time (5.43 s) per Karlin et al.'s competitive argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.predictors.base import (
    LocalPredictor,
    PredictorSource,
    ShutdownIntent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.filter import DiskAccess

#: The paper's timeout value (§6.1).
PAPER_TIMEOUT = 10.0


class TimeoutPredictor(LocalPredictor):
    """Shut down ``timeout`` seconds after the process's last access."""

    name = "TP"

    def __init__(self, timeout: float = PAPER_TIMEOUT) -> None:
        if timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        self.timeout = timeout
        self._intent = ShutdownIntent(
            delay=timeout, source=PredictorSource.PRIMARY
        )

    def initial_intent(self, start_time: float) -> ShutdownIntent:
        return self._intent

    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        return self._intent
