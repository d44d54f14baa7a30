"""Columnar (structure-of-arrays) view of a filtered disk-access stream.

The simulation hot loops — gap extraction in the local evaluation, the
merged-stream replay of the global engine — consume the same handful of
per-access scalars (arrival time, block count) over and over:
once per predictor, once per sweep point, once per figure.  Pulling those
scalars out of the row-oriented :class:`~repro.cache.filter.DiskAccess`
dataclasses on every pass costs an attribute lookup per field per access
per replay.

:class:`ColumnarAccesses` transposes the arrival times and block counts
once into NumPy arrays (built lazily, memoized on the owning
:class:`~repro.cache.filter.FilterResult`), from which the engine obtains
plain-Python lists of times and per-access service durations (the
duration formula is evaluated vectorized, then materialized with
``.tolist()`` — bit-identical to evaluating
:meth:`~repro.config.SimulationConfig.access_duration` per access,
because both perform the same two IEEE-754 double operations per
element).

One more column store lives here: :class:`DeviceStateColumns`, the
fleet engine's per-device accumulators.

**Bit-identity contract:** every value handed back to the simulation is
numerically identical — same bits — to what the row-oriented code
computed.  Durations use only elementwise ``service_time +
service_time_per_block * block_count`` (no reassociation, no fused
multiply-add in NumPy's elementwise path for float64), and the arrays are
materialized back into Python floats before entering the sequential
simulation recurrences, whose evaluation order is unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cache.filter import DiskAccess
    from repro.config import SimulationConfig
    from repro.sim.experiment import ApplicationResult


class ColumnarAccesses:
    """NumPy columns of one execution's filtered disk-access stream."""

    __slots__ = ("times", "block_counts", "_durations")

    def __init__(self, times: np.ndarray, block_counts: np.ndarray) -> None:
        self.times = times
        self.block_counts = block_counts
        #: (service_time, service_time_per_block) -> durations list memo.
        self._durations: dict[tuple[float, float], list[float]] = {}

    @classmethod
    def from_accesses(
        cls, accesses: Sequence["DiskAccess"]
    ) -> "ColumnarAccesses":
        """Transpose a row-oriented access stream (one pass per column)."""
        n = len(accesses)
        times = np.fromiter(
            (a.time for a in accesses), dtype=np.float64, count=n
        )
        counts = np.fromiter(
            (a.block_count for a in accesses), dtype=np.int64, count=n
        )
        return cls(times, counts)

    def __len__(self) -> int:
        return len(self.times)

    def durations_list(self, config: "SimulationConfig") -> list[float]:
        """Per-access service durations as plain floats (memoized).

        Vectorized evaluation of
        :meth:`~repro.config.SimulationConfig.access_duration`; each
        element is bit-identical to the scalar formula.
        """
        key = (config.service_time, config.service_time_per_block)
        cached = self._durations.get(key)
        if cached is None:
            cached = (
                config.service_time
                + config.service_time_per_block * self.block_counts
            ).tolist()
            self._durations[key] = cached
        return cached

    def times_list(self) -> list[float]:
        """Arrival times as plain floats (fast sequential consumption)."""
        return self.times.tolist()


#: Per-device float64 accumulator columns (energy buckets, idle clock,
#: inflicted latency) of :class:`DeviceStateColumns`.
DEVICE_FLOAT_FIELDS = (
    "busy",
    "idle_short",
    "idle_long",
    "power_cycle",
    "standby",
    "idle_seconds",
    "delay_seconds",
)

#: Per-device int64 counter columns of :class:`DeviceStateColumns`.
DEVICE_COUNT_FIELDS = (
    "gaps",
    "opportunities",
    "hits_primary",
    "hits_backup",
    "misses_primary",
    "misses_backup",
    "unsaved_in_opportunity",
    "shutdowns",
    "disk_accesses",
    "delayed_requests",
    "irritating_delays",
    "executions",
)


class DeviceStateColumns:
    """Columnar (structure-of-arrays) simulation state of a device fleet.

    The fleet engine (:mod:`repro.sim.fleet`) keeps one row per device:
    the energy ledger buckets, the idle clock, and the prediction /
    latency counters each live in one NumPy array over the whole
    population, so advancing N devices by one application's replay is a
    handful of vectorized scatter-adds instead of N Python object
    updates — and fleet-level reductions (total energy, slowdown
    percentiles) are single array operations.

    **Bit-identity contract:** a device row accumulates the *same
    sequence of IEEE-754 additions* a standalone
    :class:`~repro.sim.experiment.ApplicationResult` accumulates —
    :meth:`absorb` adds each replay aggregate elementwise, in replay
    order, into float64 slots starting from 0.0 — so
    :meth:`ledger_of` / :meth:`stats_of` reconstruct values bit-equal
    to an independent single-device run.
    """

    __slots__ = ("n_devices",) + DEVICE_FLOAT_FIELDS + DEVICE_COUNT_FIELDS

    def __init__(self, n_devices: int) -> None:
        if n_devices < 0:
            raise ValueError("device count must be non-negative")
        self.n_devices = n_devices
        for name in DEVICE_FLOAT_FIELDS:
            setattr(self, name, np.zeros(n_devices, dtype=np.float64))
        for name in DEVICE_COUNT_FIELDS:
            setattr(self, name, np.zeros(n_devices, dtype=np.int64))

    def __len__(self) -> int:
        return self.n_devices

    def absorb(
        self, indices: np.ndarray, result: "ApplicationResult"
    ) -> None:
        """Advance the devices at ``indices`` by one replayed trace
        history: scatter-add the run's aggregates into their rows.

        ``indices`` must not contain duplicates (each device absorbs a
        given replay exactly once); with that invariant the fancy-indexed
        ``+=`` performs one addition per row — the same addition the
        scalar accumulators perform.
        """
        stats = result.stats
        ledger = result.ledger
        self.busy[indices] += ledger.busy
        self.idle_short[indices] += ledger.idle_short
        self.idle_long[indices] += ledger.idle_long
        self.power_cycle[indices] += ledger.power_cycle
        self.standby[indices] += ledger.standby
        self.idle_seconds[indices] += stats.idle_seconds
        self.delay_seconds[indices] += result.delay_seconds
        self.gaps[indices] += stats.gaps
        self.opportunities[indices] += stats.opportunities
        self.hits_primary[indices] += stats.hits_primary
        self.hits_backup[indices] += stats.hits_backup
        self.misses_primary[indices] += stats.misses_primary
        self.misses_backup[indices] += stats.misses_backup
        self.unsaved_in_opportunity[indices] += stats.unsaved_in_opportunity
        self.shutdowns[indices] += result.shutdowns
        self.disk_accesses[indices] += result.total_disk_accesses
        self.delayed_requests[indices] += result.delayed_requests
        self.irritating_delays[indices] += result.irritating_delays
        self.executions[indices] += result.executions

    def ledger_of(self, device: int):
        """One device's energy ledger (bit-equal to a standalone run)."""
        from repro.disk.energy import EnergyBreakdown

        return EnergyBreakdown(
            busy=float(self.busy[device]),
            idle_short=float(self.idle_short[device]),
            idle_long=float(self.idle_long[device]),
            power_cycle=float(self.power_cycle[device]),
            standby=float(self.standby[device]),
        )

    def stats_of(self, device: int):
        """One device's prediction counters."""
        from repro.sim.metrics import PredictionStats

        return PredictionStats(
            gaps=int(self.gaps[device]),
            opportunities=int(self.opportunities[device]),
            hits_primary=int(self.hits_primary[device]),
            hits_backup=int(self.hits_backup[device]),
            misses_primary=int(self.misses_primary[device]),
            misses_backup=int(self.misses_backup[device]),
            unsaved_in_opportunity=int(
                self.unsaved_in_opportunity[device]
            ),
            idle_seconds=float(self.idle_seconds[device]),
        )

    def energy(self) -> np.ndarray:
        """Per-device total energy (joules), vectorized."""
        return (
            self.busy + self.idle_short + self.idle_long + self.power_cycle
        )

    def delay_per_access(self) -> np.ndarray:
        """Per-device mean inflicted spin-up delay per disk access.

        The fleet's slowdown metric: seconds of policy-inflicted latency
        per served request, 0.0 for devices that served no requests.
        """
        out = np.zeros(self.n_devices, dtype=np.float64)
        np.divide(
            self.delay_seconds,
            self.disk_accesses,
            out=out,
            where=self.disk_accesses > 0,
        )
        return out

    def aggregate_ledger(self):
        """The fleet-total energy ledger (sum over device rows)."""
        from repro.disk.energy import EnergyBreakdown

        return EnergyBreakdown(
            busy=float(self.busy.sum()),
            idle_short=float(self.idle_short.sum()),
            idle_long=float(self.idle_long.sum()),
            power_cycle=float(self.power_cycle.sum()),
            standby=float(self.standby.sum()),
        )

    def aggregate_stats(self):
        """The fleet-total prediction counters (sum over device rows)."""
        from repro.sim.metrics import PredictionStats

        return PredictionStats(
            gaps=int(self.gaps.sum()),
            opportunities=int(self.opportunities.sum()),
            hits_primary=int(self.hits_primary.sum()),
            hits_backup=int(self.hits_backup.sum()),
            misses_primary=int(self.misses_primary.sum()),
            misses_backup=int(self.misses_backup.sum()),
            unsaved_in_opportunity=int(
                self.unsaved_in_opportunity.sum()
            ),
            idle_seconds=float(self.idle_seconds.sum()),
        )
