"""The Base system: no power management at all (Figure 8, bar A).

The disk never spins down; all idle time burns idle power.  Implemented
both as a :class:`LocalPredictor` (never predicts) and as the omniscient
policy used directly by the energy simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.predictors.base import LocalPredictor, OmniscientPolicy, ShutdownIntent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.filter import DiskAccess


class AlwaysOnPredictor(LocalPredictor):
    """Local predictor that never predicts a shutdown."""

    name = "Base"

    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        return ShutdownIntent.never()


class AlwaysOnPolicy(OmniscientPolicy):
    """Gap-level policy: never shut down."""

    name = "Base"

    def shutdown_offset(self, gap_length: float) -> Optional[float]:
        return None
