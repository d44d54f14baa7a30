"""The page-cache filter's two paths agree.

``filter_execution(execution, config)`` decides the paper's plain LRU
cache over whole-execution columns; ``cache=PageCache(config)`` replays
the same execution row by row through the cache simulator.  The column
path shares no code with :class:`PageCache` or its LRU mapping, so the
loop is an independent reference: both must give equal
:class:`FilterResult` values, accesses in order and cache statistics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.filter import filter_execution
from repro.cache.page_cache import CacheConfig, PageCache
from repro.traces.events import AccessType, ExitEvent, ForkEvent
from repro.traces.trace import ExecutionTrace
from repro.workloads import APPLICATIONS, build_application
from repro.workloads.streaming import pack_generated
from tests.helpers import io_event

READ, WRITE = AccessType.READ, AccessType.WRITE
INTERVAL = 0.1
#: Flush wake-up times exactly as the cache accumulates them.
WAKES = np.cumsum(np.full(64, INTERVAL)).tolist()


def _config(blocks: int, interval: float = 30.0) -> CacheConfig:
    return CacheConfig(
        capacity_bytes=blocks * 4096, block_size=4096,
        flush_interval=interval,
    )


def _both(execution, config, flush_on_exit=True):
    """Both paths' results, asserted equal; returns the column path's."""
    columns = filter_execution(execution, config, flush_on_exit=flush_on_exit)
    loop = filter_execution(
        execution, config, flush_on_exit=flush_on_exit,
        cache=PageCache(config),
    )
    assert columns.accesses == loop.accesses
    assert columns.cache_stats == loop.cache_stats
    return columns


def _execution(events, pids=(100,)):
    return ExecutionTrace.from_events("app", 0, events, frozenset(pids))


def _reads(blocks):
    return [
        io_event(0.001 * (i + 1), block_start=block)
        for i, block in enumerate(blocks)
    ]


# -- generated multi-process executions -----------------------------------

_rows = st.lists(
    st.tuples(
        st.integers(0, 40),  # wake-up index of the row's time ...
        st.booleans(),  # ... exactly on the wake-up, or 0.05 s after
        st.sampled_from([100, 101, 102]),
        st.sampled_from(
            [READ, READ, AccessType.OPEN, WRITE, WRITE,
             AccessType.SYNC_WRITE, AccessType.CLOSE]
        ),
        st.integers(1, 3),  # inode
        st.integers(0, 12),  # first block: ranges overlap
        st.integers(0, 4),  # blocks, zero included
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(_rows, st.integers(1, 8), st.booleans())
def test_paths_agree_on_generated_executions(rows, blocks, flush_on_exit):
    """Equal timestamps, gaps across several wake-ups and rows exactly
    on a wake-up, from three processes (two forked children)."""
    rows = sorted(rows, key=lambda row: (row[0], not row[1]))
    events = [ForkEvent(0.0, 101, 100), ForkEvent(0.0, 102, 100)]
    for wake, on_wake, pid, kind, inode, start, count in rows:
        time = WAKES[wake - 1] if wake else 0.0
        events.append(io_event(
            time if on_wake else time + 0.05, pid=pid, pc=0x1000 + wake % 3,
            kind=kind, inode=inode, block_start=start, block_count=count,
        ))
    end = events[-1].time
    events += [ExitEvent(end, 101), ExitEvent(end, 102)]
    _both(_execution(events), _config(blocks, INTERVAL), flush_on_exit)


# -- named edge cases ------------------------------------------------------


@pytest.mark.parametrize("blocks, hits", [
    # C = 4.  Block 0 is touched again after C - 2, C - 1 and C other
    # touches: fewer than C in between always hits; C in between hits
    # only while fewer than C of them are distinct.
    ([0, 1, 2, 0], 1),
    ([0, 1, 2, 3, 0], 1),
    ([0, 1, 2, 3, 4, 0], 0),
    ([0, 1, 2, 1, 3, 0], 2),
])
def test_retouch_at_the_capacity_boundary(blocks, hits):
    result = _both(_execution(_reads(blocks)), _config(4))
    assert result.cache_stats.read_hits == hits


@pytest.mark.parametrize("newcomer, hit", [(False, True), (True, False)])
def test_long_window_counts_distinct_blocks(newcomer, hit):
    """Block 99 comes back after 600 touches of C - 1 other blocks (a
    hit), or of those plus one new block far past the first 2C touches
    (a miss)."""
    blocks = [99] + [i % 7 for i in range(600)]
    if newcomer:
        blocks[550] = 50
    blocks.append(99)
    events = _reads(blocks)
    result = _both(_execution(events), _config(8))
    assert (result.accesses[-1].time == events[-1].time) is not hit


def test_dirty_block_evicted_in_the_row_whose_wakeup_cleaned_it():
    """The row at the wake-up time runs the flush daemon before its own
    touch evicts the block, so the block leaves clean: one daemon
    write-back stamped with the wake-up, no forced one."""
    events = [
        io_event(0.05, kind=WRITE, block_start=0),
        io_event(0.06, block_start=1),
        io_event(WAKES[0], block_start=2),
    ]
    result = _both(_execution(events), _config(2, INTERVAL))
    flushes = [access for access in result.accesses if access.is_flush]
    assert [(f.time, f.block_count) for f in flushes] == [(WAKES[0], 1)]


def test_dirty_block_hit_again_before_eviction():
    """A hit refreshes the dirty block, so the eviction that writes it
    back is counted from the hit, and the write-back keeps the writer's
    pid and the inode the block was inserted with."""
    events = [
        io_event(0.01, pid=101, kind=WRITE, inode=5, block_start=0),
        io_event(0.02, block_start=1),
        io_event(0.03, inode=6, block_start=0),  # hit: 0 is now MRU
        io_event(0.04, block_start=2),  # evicts 1, not 0
        io_event(0.05, block_start=3),  # evicts 0: forced write-back
    ]
    result = _both(_execution(events, pids=(100, 101)), _config(2))
    flushes = [access for access in result.accesses if access.is_flush]
    assert [(f.time, f.pid, f.inode) for f in flushes] == [(0.05, 101, 5)]


def test_sync_write_of_zero_blocks_reaches_the_disk():
    events = [io_event(0.1, kind=AccessType.SYNC_WRITE, block_count=0)]
    result = _both(_execution(events), _config(4))
    assert [a.block_count for a in result.accesses] == [1]


# -- the suite -------------------------------------------------------------


def test_paths_agree_on_the_suite(tmp_path):
    """Every execution of the scale-0.3 suite, in memory and read from a
    store whose tiny chunks split executions across windows."""
    config = CacheConfig()
    store = pack_generated(tmp_path / "store", scale=0.3, chunk_rows=97)
    for name in APPLICATIONS:
        # build_application, not the suite memo other tests share.
        trace = build_application(name, scale=0.3)
        for memory, stored in zip(trace, store.trace(name), strict=True):
            expected = _both(memory, config)
            assert _both(stored, config) == expected
