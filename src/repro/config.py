"""Simulation configuration shared by predictors, engine, and benches."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.cache.page_cache import CacheConfig
from repro.disk.power_model import DiskPowerParameters, fujitsu_mhf2043at
from repro.errors import ConfigurationError

#: Environment variable naming the default worker count of the parallel
#: execution layer (:mod:`repro.sim.parallel`).
JOBS_ENV_VAR = "REPRO_JOBS"


def default_jobs() -> int:
    """Default worker count for parallel experiment execution.

    Read from the ``REPRO_JOBS`` environment variable: a positive
    integer is used as-is, ``0`` means "one worker per CPU core", and an
    unset (or empty / whitespace-only) variable means serial execution
    (one worker).  Anything else — a non-integer, a negative count —
    raises :class:`~repro.errors.ConfigurationError` instead of silently
    falling back to a surprising default.
    """
    raw = os.environ.get(JOBS_ENV_VAR)
    if raw is None:
        return 1
    text = raw.strip()
    if not text:
        return 1
    try:
        value = int(text)
    except ValueError:
        raise ConfigurationError(
            f"{JOBS_ENV_VAR}={raw!r} is not a worker count; use a "
            "positive integer, or 0 for one worker per CPU core"
        ) from None
    if value < 0:
        raise ConfigurationError(
            f"{JOBS_ENV_VAR}={raw!r} is negative; use a positive "
            "integer, or 0 for one worker per CPU core"
        )
    if value == 0:
        return os.cpu_count() or 1
    return value


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """All knobs of one simulation run (paper §6 defaults).

    * ``wait_window`` — sliding wait-window of the dynamic predictors
      (1 s, §6.1);
    * ``timeout`` — the TP timer, also the backup predictor inside PCAP
      and LT (10 s, §6.1);
    * ``service_time`` — base disk busy time charged per (post-cache)
      access (seek + rotation), plus ``service_time_per_block`` for each
      4 KB block transferred; traces record request arrival, not
      duration, so the simulator models service time explicitly.
    """

    disk: DiskPowerParameters = field(default_factory=fujitsu_mhf2043at)
    cache: CacheConfig = field(default_factory=CacheConfig)
    wait_window: float = 1.0
    timeout: float = 10.0
    service_time: float = 0.010
    service_time_per_block: float = 0.0006

    def __post_init__(self) -> None:
        if self.wait_window < 0:
            raise ConfigurationError("wait window must be non-negative")
        if self.timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if self.service_time < 0 or self.service_time_per_block < 0:
            raise ConfigurationError("service times must be non-negative")
        if self.wait_window >= self.breakeven:
            raise ConfigurationError(
                "wait window must be shorter than the breakeven time"
            )

    @property
    def breakeven(self) -> float:
        """Breakeven time derived from the disk parameters (~5.43 s)."""
        return self.disk.breakeven_time()

    def access_duration(self, block_count: int) -> float:
        """Disk busy time of one access moving ``block_count`` blocks."""
        return self.service_time + self.service_time_per_block * block_count


def paper_config() -> SimulationConfig:
    """The configuration used throughout the paper's §6."""
    return SimulationConfig()
