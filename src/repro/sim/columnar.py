"""Columnar (structure-of-arrays) view of a filtered disk-access stream.

The simulation hot loops — gap extraction in the local evaluation, the
merged-stream replay of the global engine — consume the same handful of
per-access scalars (arrival time, pid, pc, fd, block count) over and over:
once per predictor, once per sweep point, once per figure.  Pulling those
scalars out of the row-oriented :class:`~repro.cache.filter.DiskAccess`
dataclasses on every pass costs an attribute lookup per field per access
per replay.

:class:`ColumnarAccesses` transposes the stream once into NumPy arrays
(built lazily, memoized on the owning
:class:`~repro.cache.filter.FilterResult`), from which the engine obtains:

* plain-Python lists of times and per-access service durations (the
  duration formula is evaluated vectorized, then materialized with
  ``.tolist()`` — bit-identical to evaluating
  :meth:`~repro.config.SimulationConfig.access_duration` per access,
  because both perform the same two IEEE-754 double operations per
  element);
* per-process index groupings for the local (Figure 6) evaluation;
* the raw arrays for vectorized analytics (gap statistics, reductions).

Two more column stores live here: :class:`ColumnarTape`, the
predictor-independent replay skeleton that
:func:`repro.sim.engine.build_replay_tape` fills in one sequential pass
and whose per-step views every fused lane (:mod:`repro.sim.fused`)
walks, and :class:`DeviceStateColumns`, the fleet engine's per-device
accumulators.

**Bit-identity contract:** every value handed back to the simulation is
numerically identical — same bits — to what the row-oriented code
computed.  Durations use only elementwise ``service_time +
service_time_per_block * block_count`` (no reassociation, no fused
multiply-add in NumPy's elementwise path for float64), and the arrays are
materialized back into Python floats before entering the sequential
simulation recurrences, whose evaluation order is unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cache.filter import DiskAccess
    from repro.config import SimulationConfig
    from repro.sim.experiment import ApplicationResult


#: Replay-tape opcodes — the values of :class:`ColumnarTape`'s ``op``
#: column and the first element of every replay-view step.  Defined here
#: so the tape, its builder (:func:`repro.sim.engine.build_replay_tape`)
#: and its consumers (:mod:`repro.sim.fused`) share one source.
TAPE_SIMPLE = 0  #: access with no actionable gap (back-to-back or <= EPS)
TAPE_GAP = 1  #: access ending a gap a shutdown could fire in
TAPE_FORK = 2  #: process fork (liveness + try-point)
TAPE_EXIT = 3  #: process exit (liveness + trailing feedback + try-point)

#: Codes of the tape's ``fb_class`` column.  ``-1`` means "no feedback";
#: non-negative codes index :data:`~repro.predictors.base.IdleClass` in
#: (SUB_WINDOW, SHORT, LONG) order.
FB_SUB_WINDOW = 0
FB_SHORT = 1
FB_LONG = 2

#: The tape's per-step column arrays, in canonical order.
_TAPE_ARRAY_FIELDS = (
    "op",
    "times",
    "can_fire",
    "record",
    "window_start",
    "busy_until",
    "gap_length",
    "idle_full",
    "long_period",
    "gap_end",
    "busy_after",
    "register",
    "pids",
    "access_index",
    "anchor_max",
    "fb_start",
    "fb_end",
    "fb_class",
)

#: The tape's whole-execution scalar fields.
_TAPE_SCALAR_FIELDS = (
    "start",
    "end",
    "initial_pids",
    "busy_energy",
    "n_accesses",
    "end_can_fire",
    "end_record",
    "trailing",
    "final_window_start",
    "final_busy_until",
    "final_gap_end",
    "final_idle_full",
    "final_long",
    "final_anchor_max",
)


class ColumnarTape:
    """Predictor-independent replay skeleton as parallel NumPy columns.

    One row per merged-schedule step (accesses and liveness events,
    schedule order).  Column semantics:

    * ``op`` (u1) — :data:`TAPE_SIMPLE` / :data:`TAPE_GAP` /
      :data:`TAPE_FORK` / :data:`TAPE_EXIT`;
    * ``times`` (f8) — the step's event time;
    * ``can_fire`` / ``record`` (bool) — the engine's try-shutdown gate
      and its stats gate (distinct float predicates, kept separately on
      purpose; ``record`` is only meaningful on access steps);
    * ``window_start`` / ``busy_until`` (f8) — the decision window and
      disk-busy state entering the step;
    * ``gap_length`` / ``gap_end`` / ``idle_full`` / ``long_period`` —
      the resolved gap of access steps (``idle_full`` is the no-shutdown
      idle energy; zero on back-to-back accesses and liveness steps);
    * ``busy_after`` (f8) — disk-busy time after an access is served;
    * ``register`` (bool) — access by an unregistered pid (or fork
      ``is_new``);
    * ``pids`` (i8) / ``access_index`` (i8) — the step's process and its
      position in the filtered access stream (``-1`` for liveness);
    * ``anchor_max`` (f8) — the latest live intent anchor at the step's
      try-point, ``NaN`` encoding "no try-point / no live anchors" (the
      classic tape's ``None``);
    * ``fb_start`` / ``fb_end`` (f8) and ``fb_class`` (i1) — the
      per-process idle-feedback gap delivered at the step, ``fb_class``
      of ``-1`` meaning no feedback (codes index ``IdleClass`` in
      (SUB_WINDOW, SHORT, LONG) order).

    The whole-execution scalars (``start`` … ``final_anchor_max``) carry
    the trailing-gap state exactly like the historical tuple tape.

    Tapes are built by :func:`repro.sim.engine.build_replay_tape` and
    replayed by :mod:`repro.sim.fused`, whose lanes all iterate
    :meth:`replay_views`.  Tapes pickle compactly (the memoized views
    and the bound access stream are dropped), which is what lets the
    artifact cache persist them per
    (execution fingerprint × configuration).
    """

    __slots__ = _TAPE_ARRAY_FIELDS + _TAPE_SCALAR_FIELDS + (
        "_accesses",
        "_views",
    )

    def __init__(self) -> None:
        self._accesses = None
        self._views = None

    def __len__(self) -> int:
        return len(self.op)

    def __getstate__(self) -> dict:
        """Pickle the column arrays and scalars; memos are rebuilt."""
        state = {
            name: getattr(self, name) for name in _TAPE_ARRAY_FIELDS
        }
        state.update(
            {name: getattr(self, name) for name in _TAPE_SCALAR_FIELDS}
        )
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore columns and scalars; clear the transient memos."""
        for name in _TAPE_ARRAY_FIELDS + _TAPE_SCALAR_FIELDS:
            setattr(self, name, state[name])
        self._accesses = None
        self._views = None

    def bind_accesses(self, accesses: Sequence["DiskAccess"]) -> None:
        """Attach the filtered access stream the tape was built from.

        The generic replay lane injects the actual
        :class:`~repro.cache.filter.DiskAccess` objects into its step
        views through the ``access_index`` column; they are *not* stored
        on the tape (they are already cached/pickled elsewhere), so a
        cache-restored tape must be re-bound before a generic lane runs.
        """
        if self._accesses is not accesses:
            self._accesses = accesses
            self._views = None

    def replay_views(self) -> list:
        """Per-step tuples for the replay lanes (memoized).

        Runs of consecutive :data:`TAPE_SIMPLE` steps are grouped into a
        single ``(TAPE_SIMPLE, items)`` entry — ``items`` being ``(pid,
        access, feedback, busy_after, register, idle_full)`` tuples — so
        the lanes dispatch once per run instead of once per step.
        :data:`TAPE_GAP` / :data:`TAPE_FORK` / :data:`TAPE_EXIT` entries
        carry the historical tuple layout, with prebuilt (shared,
        immutable) :class:`~repro.predictors.base.IdleFeedback` objects
        and ``anchor_max`` decoded back to ``None``-or-float.
        """
        views = self._views
        if views is not None:
            return views
        accesses = self._accesses
        if accesses is None:
            raise ValueError(
                "tape has no bound access stream; call bind_accesses() "
                "before replaying a generic lane"
            )
        from repro.predictors.base import IdleClass, IdleFeedback

        classes = (IdleClass.SUB_WINDOW, IdleClass.SHORT, IdleClass.LONG)
        op_l = self.op.tolist()
        t_l = self.times.tolist()
        cf_l = self.can_fire.tolist()
        rec_l = self.record.tolist()
        ws_l = self.window_start.tolist()
        bu_l = self.busy_until.tolist()
        gl_l = self.gap_length.tolist()
        if_l = self.idle_full.tolist()
        lp_l = self.long_period.tolist()
        ge_l = self.gap_end.tolist()
        ba_l = self.busy_after.tolist()
        reg_l = self.register.tolist()
        pid_l = self.pids.tolist()
        ai_l = self.access_index.tolist()
        am_l = self.anchor_max.tolist()
        fs_l = self.fb_start.tolist()
        fe_l = self.fb_end.tolist()
        fc_l = self.fb_class.tolist()
        views = []
        append = views.append
        run: Optional[list] = None
        for i in range(len(op_l)):
            code = fc_l[i]
            feedback = (
                IdleFeedback(
                    start=fs_l[i], end=fe_l[i], idle_class=classes[code]
                )
                if code >= 0
                else None
            )
            op = op_l[i]
            if op == TAPE_SIMPLE:
                item = (
                    pid_l[i], accesses[ai_l[i]], feedback, ba_l[i],
                    reg_l[i], if_l[i],
                )
                if run is None:
                    run = [item]
                    append((TAPE_SIMPLE, run))
                else:
                    run.append(item)
                continue
            run = None
            am = am_l[i]
            if am != am:  # NaN encodes the classic tape's None
                am = None
            if op == TAPE_GAP:
                append(
                    (TAPE_GAP, t_l[i], cf_l[i], rec_l[i], ws_l[i],
                     bu_l[i], gl_l[i], if_l[i], lp_l[i], ge_l[i],
                     ba_l[i], reg_l[i], pid_l[i], feedback,
                     accesses[ai_l[i]], am)
                )
            elif op == TAPE_FORK:
                append(
                    (TAPE_FORK, t_l[i], cf_l[i], ws_l[i], bu_l[i],
                     pid_l[i], reg_l[i], am)
                )
            else:
                append(
                    (TAPE_EXIT, t_l[i], cf_l[i], ws_l[i], bu_l[i],
                     pid_l[i], feedback, am)
                )
        self._views = views
        return views


class ColumnarAccesses:
    """NumPy columns of one execution's filtered disk-access stream."""

    __slots__ = (
        "times",
        "pids",
        "pcs",
        "fds",
        "block_counts",
        "_durations",
        "_per_process_indices",
    )

    def __init__(
        self,
        times: np.ndarray,
        pids: np.ndarray,
        pcs: np.ndarray,
        fds: np.ndarray,
        block_counts: np.ndarray,
    ) -> None:
        self.times = times
        self.pids = pids
        self.pcs = pcs
        self.fds = fds
        self.block_counts = block_counts
        #: (service_time, service_time_per_block) -> durations list memo.
        self._durations: dict[tuple[float, float], list[float]] = {}
        self._per_process_indices: Optional[dict[int, np.ndarray]] = None

    @classmethod
    def from_accesses(
        cls, accesses: Sequence["DiskAccess"]
    ) -> "ColumnarAccesses":
        """Transpose a row-oriented access stream (one pass per column)."""
        n = len(accesses)
        times = np.fromiter(
            (a.time for a in accesses), dtype=np.float64, count=n
        )
        pids = np.fromiter((a.pid for a in accesses), dtype=np.int64, count=n)
        pcs = np.fromiter((a.pc for a in accesses), dtype=np.int64, count=n)
        fds = np.fromiter((a.fd for a in accesses), dtype=np.int64, count=n)
        counts = np.fromiter(
            (a.block_count for a in accesses), dtype=np.int64, count=n
        )
        return cls(times, pids, pcs, fds, counts)

    @classmethod
    def from_arrays(
        cls,
        times: np.ndarray,
        pids: np.ndarray,
        pcs: np.ndarray,
        fds: np.ndarray,
        block_counts: np.ndarray,
    ) -> "ColumnarAccesses":
        """Wrap pre-built column arrays (e.g. slices of trace-store
        memmaps) without copying; dtypes are normalized to the canonical
        float64/int64 layout."""
        return cls(
            np.ascontiguousarray(times, dtype=np.float64),
            np.ascontiguousarray(pids, dtype=np.int64),
            np.ascontiguousarray(pcs, dtype=np.int64),
            np.ascontiguousarray(fds, dtype=np.int64),
            np.ascontiguousarray(block_counts, dtype=np.int64),
        )

    @classmethod
    def concat(
        cls, chunks: Sequence["ColumnarAccesses"]
    ) -> "ColumnarAccesses":
        """Assemble one view from per-chunk views, in order.

        Used to stitch chunk-windowed columns (the trace store's bounded
        read path) back into a single execution-wide view; concatenation
        preserves every element bitwise, so the result is
        indistinguishable from a single-pass transpose.
        """
        if not chunks:
            return cls.from_accesses([])
        if len(chunks) == 1:
            return chunks[0]
        return cls(
            np.concatenate([c.times for c in chunks]),
            np.concatenate([c.pids for c in chunks]),
            np.concatenate([c.pcs for c in chunks]),
            np.concatenate([c.fds for c in chunks]),
            np.concatenate([c.block_counts for c in chunks]),
        )

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

    def per_process_indices(self) -> dict[int, np.ndarray]:
        """``pid -> positions`` of each process's accesses, in stream order
        (memoized)."""
        if self._per_process_indices is None:
            order = np.argsort(self.pids, kind="stable")
            sorted_pids = self.pids[order]
            boundaries = np.nonzero(np.diff(sorted_pids))[0] + 1
            groups = np.split(order, boundaries)
            self._per_process_indices = {
                int(self.pids[group[0]]): np.sort(group)
                for group in groups
                if len(group)
            }
        return self._per_process_indices

    def gap_lengths(self, *, lead_in: float) -> np.ndarray:
        """Arrival-to-arrival gaps (vectorized analytics helper).

        ``lead_in`` is the stream start time; element ``i`` is the time
        from the previous arrival (or the stream start) to arrival ``i``.
        This ignores service time — it is an upper bound on idle time
        used by coarse analytics, not by the engine.
        """
        if not len(self.times):
            return np.empty(0, dtype=np.float64)
        previous = np.concatenate(([lead_in], self.times[:-1]))
        return self.times - previous


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
