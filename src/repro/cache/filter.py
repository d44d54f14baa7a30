"""Trace → disk-access filtering pipeline.

The paper: "the collected traces of I/O operations are filtered through
our file cache, and only cache misses are treated as actual disk
accesses."  :func:`filter_execution` implements exactly that step and
emits the time-ordered :class:`DiskAccess` stream the predictors and the
energy simulator see.  It has two paths, selected by whether a cache
object is passed:

* The paper's plain LRU cache (no ``cache=``, every batch and serve
  caller) is decided over the execution's whole columns
  (:attr:`~repro.traces.trace.ExecutionLike.columns`) in NumPy: LRU's
  stack-distance property gives each block touch its hit or miss from
  the touches since the block's previous one, and only the blocks WRITE
  rows dirty are followed to place their write-backs.  No cache is
  simulated and no event object is built.
* A substituted cache object (the PC-aware eviction and prefetching
  extensions, which are not LRU) is replayed row by row through its
  ``advance``/``read``/``write`` calls, over the column chunks of the
  :class:`~repro.traces.trace.ExecutionLike` streaming protocol.  That
  loop over a plain :class:`~repro.cache.page_cache.PageCache` is also
  the reference the tests hold the column path equal to.

Because the same :class:`FilterResult` is replayed many times (once per
predictor, per sweep point, per figure), it memoizes its derived views —
the per-process grouping and the columnar (:mod:`repro.sim.columnar`)
representation the engine's hot loops consume.  The memos are dropped
on pickling (workers and the artifact cache rebuild them lazily).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

from repro.cache.page_cache import CacheConfig, CacheStats, PageCache, WriteBack
from repro.cache.writeback import FLUSH_FD, coalesce_writebacks
from repro.traces.events import KERNEL_FLUSH_PC, AccessType
from repro.traces.trace import KIND_CODE, ExecutionLike

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    import numpy as np

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


#: The columns of an I/O row the replay loop reads, in loop order.
_IO_FIELDS = (
    "time", "pid", "pc", "fd", "kind", "inode", "block_start", "block_count",
)

_KINDS = tuple(AccessType)
_WRITE = KIND_CODE[AccessType.WRITE]
_SYNC = KIND_CODE[AccessType.SYNC_WRITE]
_FLUSH = KIND_CODE[AccessType.FLUSH]


#: Rows that touch their block range (CLOSE rows touch none), and the
#: rows whose misses are fetched as one disk access.
_TOUCHES = (
    AccessType.READ, AccessType.OPEN, AccessType.WRITE, AccessType.SYNC_WRITE
)
_FETCHES = (AccessType.READ, AccessType.OPEN)


@functools.cache
def _code_table(kinds: tuple[AccessType, ...]) -> np.ndarray:
    """Mask of ``kinds``, indexed by the u1 ``kind`` column (built once)."""
    import numpy as np

    table = np.zeros(256, dtype=bool)
    table[[KIND_CODE[kind] for kind in kinds]] = True
    table.setflags(write=False)  # shared by every call
    return table


#: Cells per block of the bulk window count in :func:`_nth_new_block`.
_BULK_CELLS = 1 << 18


def filter_execution(
    execution: ExecutionLike,
    config: Optional[CacheConfig] = None,
    *,
    flush_on_exit: bool = True,
    cache: Optional[PageCache] = None,
) -> FilterResult:
    """Filter one execution through a fresh file cache.

    Each execution gets its own cache instance: the paper traced each
    application separately, and a cold cache per run conservatively models
    the unknown inter-run cache contents.

    ``flush_on_exit`` forces remaining dirty data to disk at the trace end
    (the kernel eventually writes it back; doing it at the end keeps the
    perturbation of idle periods minimal).

    With no ``cache`` the cache is the paper's plain LRU one sized by
    ``config``, decided over the execution's whole columns
    (:func:`_filter_lru`).  ``cache`` substitutes a cache object (e.g. the
    PC-aware eviction extension), which need not be LRU, so the execution
    is replayed through it row by row (:func:`_replay`); the tests hold
    the column path equal to that loop over a :class:`PageCache`.
    """
    if cache is not None:
        return _replay(execution, cache, flush_on_exit)
    return _filter_lru(execution, config or CacheConfig(), flush_on_exit)


class _Touches(NamedTuple):
    """The block touches of one execution's I/O rows, in row order.

    A READ/OPEN/WRITE/SYNC_WRITE row touches each block of its range in
    turn; a touch is a hit or a miss of the LRU cache.
    """

    #: I/O row of each touch.
    row: np.ndarray
    #: Index of each I/O row's first touch, then the number of touches.
    start: np.ndarray
    #: Touch indices sorted by block, stably (so in order within a block).
    order: np.ndarray
    #: ``same[s]``: ``order[s + 1]`` touches the block of ``order[s]``.
    same: np.ndarray
    #: The previous touch of the same block, or -1.
    prev: np.ndarray
    miss: np.ndarray


def _lru_touches(
    kind: np.ndarray,
    block_start: np.ndarray,
    block_count: np.ndarray,
    capacity: int,
) -> _Touches:
    """Expand I/O rows into touches and decide each one's hit or miss.

    LRU is a stack algorithm (Mattson et al.): a touch hits iff fewer
    than ``capacity`` distinct blocks were touched since the previous
    touch of its block.  A re-touch fewer than ``capacity`` touches later
    must hit, so only the farther ones count distinct blocks.
    """
    import numpy as np

    counts = np.where(
        _code_table(_TOUCHES)[kind], np.maximum(block_count, 0), 0
    )
    start = np.concatenate(([0], np.cumsum(counts)))
    row = np.repeat(np.arange(len(kind)), counts)
    position = np.arange(int(start[-1]))
    block = block_start[row] + (position - start[row])
    order = np.argsort(block, kind="stable")
    same = block[order[1:]] == block[order[:-1]]
    prev = np.full(len(position), -1)
    prev[order[1:][same]] = order[:-1][same]
    hit = prev >= 0
    far = np.flatnonzero(hit & (position - prev > capacity))
    hit[far] = _nth_new_block(prev, prev[far], far, capacity) < 0
    return _Touches(row, start, order, same, prev, ~hit)


def _nth_new_block(
    prev: np.ndarray, after: np.ndarray, before: np.ndarray, n: int
) -> np.ndarray:
    """Where the ``n``-th distinct block appears in each touch window.

    Window ``e`` holds the touches strictly between ``after[e]`` and
    ``before[e]``.  A touch there brings in a new block iff its block's
    previous touch is before ``after[e]``, so these touches count the
    distinct blocks other than that of ``after[e]`` touched in the
    window.  Returns the position of each window's ``n``-th such touch,
    or -1 when it has fewer.  Every window is counted in bulk over its first ``2n``
    touches; the few still short of ``n`` continue in doubling slices
    that stop at the slice holding the ``n``-th.  A touch is only
    scanned while its window's block is among the ``n`` most recent, so
    the work stays O(``n`` · touches).
    """
    import numpy as np

    found = np.full(len(after), -1)
    seen = np.zeros(len(after), dtype=np.int64)
    width = 2 * n
    offsets = np.arange(1, width + 1)
    last = len(prev) - 1
    step = max(1, _BULK_CELLS // width)
    for lo in range(0, len(after), step):
        first = after[lo:lo + step, None]
        at = first + offsets
        new = (at < before[lo:lo + step, None]) & (
            prev[np.minimum(at, last)] < first
        )
        running = np.cumsum(new, axis=1)
        seen[lo:lo + step] = running[:, -1]
        done = np.flatnonzero(running[:, -1] >= n)
        found[lo + done] = (
            first[done, 0] + 1 + np.argmax(running[done] >= n, axis=1)
        )
    for e in np.flatnonzero((found < 0) & (before - after > width + 1)):
        first, stop = int(after[e]), int(before[e])
        need = n - int(seen[e])
        begin, size = first + 1 + width, width
        while begin < stop:
            end = min(begin + size, stop)
            new = np.flatnonzero(prev[begin:end] < first)
            if len(new) >= need:
                found[e] = begin + new[need - 1]
                break
            need -= len(new)
            begin, size = end, 2 * size
    return found


def _write_back_groups(
    columns: dict,
    end_time: float,
    config: CacheConfig,
    flush_on_exit: bool,
    rows: np.ndarray,
    time: np.ndarray,
    touches: _Touches,
    written: np.ndarray,
) -> tuple[int, list[np.ndarray]]:
    """Place the write-backs of the blocks WRITE touches dirty.

    A WRITE touch dirties its block.  The block stays dirty through its
    later hits until the first of: the next flush wake-up, its eviction,
    the final flush.  A wake-up runs at the first row at or after it,
    before that row's touches; the block is evicted by the touch that
    brings in the ``capacity``-th distinct block since its last touch.
    So a run of hits of one block with no wake-up in between is one
    dirty episode, dirtied by its first WRITE touch; the write-back keeps
    the inode of the touch that inserted the block and the pid of that
    writer.  ``columns`` are the execution's columns as the caller read
    them, and ``end_time`` stamps the final flush.

    Returns the number of blocks written back and their coalesced groups
    as ``[row, phase, time, pid, inode, blocks]`` columns: one group per
    (row, phase, time, pid, inode), where phase 0 is a row's daemon
    wake-ups (or, at row ``len(rows)``, the final flush) and phase 1 its
    forced write-backs.
    """
    import numpy as np

    row, start, order, same, prev, miss = touches
    position = np.arange(len(prev))
    # Wake-up times accumulate like PageCache's ``_next_flush += interval``
    # (np.cumsum adds in order, so the floats are the same).
    reached = np.maximum.accumulate(time)
    interval = config.flush_interval
    wakes = np.cumsum(np.full(int(reached[-1] // interval) + 2, interval))
    wakes = wakes[:np.searchsorted(wakes, reached[-1], side="right")]
    # Wake-ups run by the end of each row; a touch's episode ends at the
    # first row that runs one more.
    epoch = np.searchsorted(wakes, reached, side="right")
    touch_epoch = epoch[row]
    later = order[1:]
    link = same & ~miss[later] & (touch_epoch[later] == touch_epoch[order[:-1]])
    closing = np.append(np.flatnonzero(~link), len(order) - 1)
    rank = np.empty_like(order)
    rank[order] = position
    episode = closing[np.searchsorted(closing, rank[written])]
    _, first = np.unique(episode, return_index=True)
    dirtied = written[first]
    last = order[episode[first]]
    inserted = order[
        np.maximum.accumulate(np.where(miss[order], position, 0))[
            rank[dirtied]
        ]
    ]
    dirty_epoch = touch_epoch[dirtied]
    wake_row = np.searchsorted(epoch, dirty_epoch, side="right")
    evictor = _nth_new_block(prev, last, start[wake_row], config.capacity_blocks)
    forced = evictor >= 0
    daemon = ~forced & (wake_row < len(rows))
    stamp = np.full(len(dirtied), end_time)
    group_row = np.where(forced, row[evictor], wake_row)
    stamp[forced] = time[group_row[forced]]
    stamp[daemon] = wakes[dirty_epoch[daemon]]
    # Still dirty at the end (row len(rows)): the final flush, if any.
    keep = forced | daemon | flush_on_exit
    keys = [
        group_row[keep],
        forced[keep].astype(np.int64),
        stamp[keep],
        columns["pid"][rows[row[dirtied[keep]]]],
        columns["inode"][rows[row[inserted[keep]]]],
    ]
    by_key = np.lexsort(keys[::-1])
    keys = [key[by_key] for key in keys]
    fresh = np.zeros(len(by_key), dtype=bool)
    fresh[:1] = True
    for key in keys:
        fresh[1:] |= key[1:] != key[:-1]
    heads = np.flatnonzero(fresh)
    blocks = np.diff(np.append(heads, len(by_key)))
    return len(by_key), [key[heads] for key in keys] + [blocks]


def _filter_lru(
    execution: ExecutionLike, config: CacheConfig, flush_on_exit: bool
) -> FilterResult:
    """The plain LRU cache's :class:`FilterResult`, decided over columns.

    Equal to :func:`_replay` through a fresh :class:`PageCache`, accesses
    in order and cache statistics, without simulating the cache.
    """
    import numpy as np

    columns = execution.columns
    rows = np.flatnonzero(columns["etype"] == 0)  # fork/exit: no traffic
    time = columns["time"][rows]
    kind = columns["kind"][rows]
    block_count = columns["block_count"][rows]
    touches = _lru_touches(
        kind, columns["block_start"][rows], block_count,
        config.capacity_blocks,
    )
    miss = touches.miss
    written = np.flatnonzero(kind[touches.row] == _WRITE)
    read_misses = int(np.count_nonzero(miss)) - int(
        np.count_nonzero(miss[written])
    )
    row_misses = np.bincount(touches.row[miss], minlength=len(rows))
    own = np.flatnonzero(
        (_code_table(_FETCHES)[kind] & (row_misses > 0)) | (kind == _SYNC)
    )
    own_rows = rows[own]
    fields = [  # DiskAccess's fields, in order
        time[own],
        columns["pid"][own_rows],
        columns["pc"][own_rows],
        columns["fd"][own_rows],
        kind[own],
        columns["inode"][own_rows],
        np.where(
            kind[own] == _SYNC,
            np.maximum(block_count[own], 1),
            row_misses[own],
        ),
    ]
    flushed = 0
    if len(written):
        flushed, groups = _write_back_groups(
            columns, execution.end_time, config, flush_on_exit, rows, time,
            touches, written,
        )
    if not flushed:
        by_time = np.argsort(fields[0], kind="stable")
    else:
        # The replay loop emits, per row, its daemon groups, its forced
        # group, then its own access, and the final flush last, each
        # group ordered by (time, pid, inode); then it sorts stably by
        # time.
        group_row, phase, stamp, pid, inode, blocks = groups
        size = len(group_row)
        flush = (
            stamp, pid, np.full(size, KERNEL_FLUSH_PC),
            np.full(size, FLUSH_FD), np.full(size, _FLUSH), inode, blocks,
        )
        fields = [np.concatenate(pair) for pair in zip(fields, flush)]
        by_time = np.lexsort((  # the last key sorts first
            fields[5],  # inode
            fields[1],  # pid
            np.concatenate((np.full(len(own), 2), phase)),
            np.concatenate((own, group_row)),
            fields[0],  # time
        ))
    kinds = _KINDS
    return FilterResult(
        application=execution.application,
        execution_index=execution.execution_index,
        accesses=[
            DiskAccess(time, pid, pc, fd, kinds[code], inode, blocks)
            for time, pid, pc, fd, code, inode, blocks in zip(
                *(field[by_time].tolist() for field in fields)
            )
        ],
        cache_stats=CacheStats(
            read_hits=len(miss) - len(written) - read_misses,
            read_misses=read_misses,
            writes=len(written),
            flushed_blocks=flushed,
        ),
    )


def _flush_records_to_accesses(writebacks: list[WriteBack]) -> list[DiskAccess]:
    return [DiskAccess(**record) for record in coalesce_writebacks(writebacks)]


def _replay(
    execution: ExecutionLike, cache: PageCache, flush_on_exit: bool
) -> FilterResult:
    """Replay ``execution`` row by row through ``cache``.

    The replay walks the execution's column chunks
    (``iter_column_chunks``): the I/O rows of each chunk are masked out
    and their columns walked as plain lists, so no event object is built
    whether the execution is in memory or read from a store.
    """
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
    by_code = _KINDS
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
