"""Trace → disk-access filtering pipeline.

The paper: "the collected traces of I/O operations are filtered through
our file cache, and only cache misses are treated as actual disk
accesses."  :func:`filter_execution` implements exactly that step: it
replays an execution through a :class:`~repro.cache.page_cache.PageCache`
and emits the time-ordered :class:`DiskAccess` stream the predictors and
the energy simulator see.  There is one replay loop, over the column
chunks of the :class:`~repro.traces.trace.ExecutionLike` streaming
protocol: an in-memory :class:`~repro.traces.trace.ExecutionTrace` is
one chunk, an on-disk :class:`~repro.traces.store.StoredExecution`
yields one memory-mapped chunk window at a time, and neither builds an
event object.

Because the same :class:`FilterResult` is replayed many times (once per
predictor, per sweep point, per figure), it memoizes its derived views —
the per-process grouping and the columnar (:mod:`repro.sim.columnar`)
representation the engine's hot loops consume.  The memos are dropped
on pickling (workers and the artifact cache rebuild them lazily).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.cache.page_cache import CacheConfig, CacheStats, PageCache, WriteBack
from repro.cache.writeback import coalesce_writebacks
from repro.traces.events import AccessType
from repro.traces.trace import ExecutionLike

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.sim.columnar import ColumnarAccesses


@dataclass(frozen=True, slots=True)
class DiskAccess:
    """One request that actually reached the disk (post-cache)."""

    time: float
    pid: int
    pc: int
    fd: int
    kind: AccessType
    inode: int
    #: Number of blocks moved (1+ for reads; coalesced count for flushes).
    block_count: int = 1

    def __reduce__(self):
        # Positional reconstruction: same rationale as the trace events
        # (filtered streams are pickled by workers and the artifact
        # cache; the generic slots-dataclass path is far slower).
        return (
            DiskAccess,
            (
                self.time, self.pid, self.pc, self.fd, self.kind,
                self.inode, self.block_count,
            ),
        )

    @property
    def is_flush(self) -> bool:
        return self.kind == AccessType.FLUSH


#: The fields of :class:`FilterResult` that constitute its value; the
#: remaining slots are lazily-built memos (dropped on pickling).
_FILTER_RESULT_STATE = (
    "application",
    "execution_index",
    "accesses",
    "cache_stats",
)


@dataclass(slots=True, eq=False)
class FilterResult:
    """Disk accesses of one execution plus cache statistics."""

    application: str
    execution_index: int
    accesses: list[DiskAccess] = field(default_factory=list)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Memoized derived views (see module docstring).  Never part of the
    #: value: excluded from pickling and equality.
    _per_process: Optional[dict[int, list[DiskAccess]]] = field(
        default=None, repr=False
    )
    _columnar: Optional["ColumnarAccesses"] = field(default=None, repr=False)
    #: Merged engine schedule memo: (execution, schedule) — see
    #: :func:`repro.sim.engine.merged_schedule`.  Holding the execution
    #: reference keeps the pairing unambiguous.
    _schedule: Optional[tuple[ExecutionLike, list]] = field(
        default=None, repr=False
    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FilterResult):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in _FILTER_RESULT_STATE
        )

    def __getstate__(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in _FILTER_RESULT_STATE}

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name in _FILTER_RESULT_STATE:
            setattr(self, name, state[name])
        self._per_process = None
        self._columnar = None
        self._schedule = None

    def per_process(self) -> dict[int, list[DiskAccess]]:
        """Accesses grouped by pid, in stream order (memoized)."""
        if self._per_process is None:
            grouped: dict[int, list[DiskAccess]] = {}
            for access in self.accesses:
                grouped.setdefault(access.pid, []).append(access)
            self._per_process = grouped
        return self._per_process

    def columnar(self) -> "ColumnarAccesses":
        """The columnar view of the stream (built once, memoized)."""
        if self._columnar is None:
            from repro.sim.columnar import ColumnarAccesses

            self._columnar = ColumnarAccesses.from_accesses(self.accesses)
        return self._columnar


#: The columns of an I/O row the replay reads, in loop order.
_IO_FIELDS = (
    "time", "pid", "pc", "fd", "kind", "inode", "block_start", "block_count",
)


def _flush_records_to_accesses(writebacks: list[WriteBack]) -> list[DiskAccess]:
    return [DiskAccess(**record) for record in coalesce_writebacks(writebacks)]


def filter_execution(
    execution: ExecutionLike,
    config: Optional[CacheConfig] = None,
    *,
    flush_on_exit: bool = True,
    cache: Optional[PageCache] = None,
) -> FilterResult:
    """Replay one execution through a fresh file cache.

    Each execution gets its own cache instance: the paper traced each
    application separately, and a cold cache per run conservatively models
    the unknown inter-run cache contents.

    ``flush_on_exit`` forces remaining dirty data to disk at the trace end
    (the kernel eventually writes it back; doing it at the end keeps the
    perturbation of idle periods minimal).  ``cache`` substitutes a
    custom cache instance (e.g. the PC-aware eviction extension).

    The replay walks the execution's column chunks
    (``iter_column_chunks``): the I/O rows of each chunk are masked out
    and their columns walked as plain lists, so no event object is built
    whether the execution is in memory or a store's memory-mapped rows.
    """
    if cache is None:
        cache = PageCache(config)
    result = FilterResult(
        application=execution.application,
        execution_index=execution.execution_index,
    )
    accesses = result.accesses
    # Hot loop: bound methods and the accesses list are bound to locals,
    # and the (overwhelmingly common) empty write-back batches skip the
    # coalescing machinery entirely.
    append = accesses.append
    extend = accesses.extend
    advance = cache.advance
    cache_read = cache.read
    cache_write = cache.write
    by_code = tuple(AccessType)
    read_code = AccessType.READ
    open_code = AccessType.OPEN
    write_code = AccessType.WRITE
    sync_code = AccessType.SYNC_WRITE
    for chunk in execution.iter_column_chunks():
        io = chunk["etype"] == 0  # fork/exit rows make no disk traffic
        for time, pid, pc, fd, code, inode, block_start, block_count in zip(
            *(chunk[name][io].tolist() for name in _IO_FIELDS)
        ):
            daemon_writebacks = advance(time)
            if daemon_writebacks:
                extend(_flush_records_to_accesses(daemon_writebacks))
            kind = by_code[code]
            blocks = range(block_start, block_start + block_count)
            if kind is read_code or kind is open_code:
                missed, forced = cache_read(time, inode, blocks, pc=pc)
                if forced:
                    extend(_flush_records_to_accesses(forced))
                if missed:
                    append(
                        DiskAccess(
                            time=time,
                            pid=pid,
                            pc=pc,
                            fd=fd,
                            kind=kind,
                            inode=inode,
                            block_count=len(missed),
                        )
                    )
            elif kind is write_code:
                forced = cache_write(time, inode, blocks, pid, pc=pc)
                if forced:
                    extend(_flush_records_to_accesses(forced))
            elif kind is sync_code:
                # Write-through: straight to disk, cached clean.
                missed, forced = cache_read(time, inode, blocks, pc=pc)
                if forced:
                    extend(_flush_records_to_accesses(forced))
                append(
                    DiskAccess(
                        time=time,
                        pid=pid,
                        pc=pc,
                        fd=fd,
                        kind=kind,
                        inode=inode,
                        block_count=max(1, block_count),
                    )
                )
            # CLOSE (and blockless events) generate no disk traffic.
    if flush_on_exit and execution.event_count > 0:
        final = cache.flush_now(execution.end_time)
        if final:
            extend(_flush_records_to_accesses(final))
    accesses.sort(key=lambda access: access.time)
    result.cache_stats = cache.stats
    return result


def filter_application(
    trace, config: Optional[CacheConfig] = None
) -> list[FilterResult]:
    """Filter every execution of an application trace (fresh cache each)."""
    return [filter_execution(execution, config) for execution in trace]
