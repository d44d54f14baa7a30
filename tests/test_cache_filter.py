"""Trace → disk-access filtering (cache misses become disk accesses)."""

import pytest

from repro.cache.filter import filter_application, filter_execution
from repro.cache.page_cache import CacheConfig
from repro.cache.writeback import FLUSH_FD, coalesce_writebacks
from repro.cache.page_cache import WriteBack
from repro.traces.events import KERNEL_FLUSH_PC, AccessType
from repro.traces.trace import ApplicationTrace, ExecutionTrace
from tests.helpers import io_event


def _execution(events):
    return ExecutionTrace.from_events(
        "app", 0, events, initial_pids=frozenset({100})
    )


def test_cold_read_reaches_disk():
    execution = _execution([io_event(0.1, block_start=10, block_count=2)])
    result = filter_execution(execution)
    assert len(result.accesses) == 1
    access = result.accesses[0]
    assert access.time == 0.1
    assert access.block_count == 2
    assert access.kind == AccessType.READ


def test_repeated_read_is_absorbed():
    events = [
        io_event(0.1, block_start=10),
        io_event(0.2, block_start=10),
        io_event(0.3, block_start=10),
    ]
    result = filter_execution(_execution(events))
    assert len(result.accesses) == 1
    assert result.cache_stats.read_hits == 2


def test_buffered_write_defers_to_flush_daemon():
    events = [
        io_event(0.1, kind=AccessType.WRITE, block_start=5),
        io_event(40.0, block_start=99),  # triggers daemon advance past 30s
    ]
    result = filter_execution(_execution(events), flush_on_exit=False)
    kinds = [a.kind for a in result.accesses]
    assert AccessType.FLUSH in kinds
    flush = next(a for a in result.accesses if a.is_flush)
    assert flush.time == pytest.approx(30.0)
    assert flush.pc == KERNEL_FLUSH_PC
    assert flush.fd == FLUSH_FD


def test_sync_write_goes_straight_to_disk():
    events = [io_event(0.1, kind=AccessType.SYNC_WRITE, block_start=5)]
    result = filter_execution(_execution(events), flush_on_exit=False)
    assert len(result.accesses) == 1
    assert result.accesses[0].kind == AccessType.SYNC_WRITE


def test_flush_on_exit_writes_remaining_dirty_data():
    events = [io_event(0.1, kind=AccessType.WRITE, block_start=5)]
    result = filter_execution(_execution(events), flush_on_exit=True)
    assert any(a.is_flush for a in result.accesses)


def test_open_behaves_like_read():
    events = [io_event(0.1, kind=AccessType.OPEN, block_start=77)]
    result = filter_execution(_execution(events))
    assert len(result.accesses) == 1


def test_close_generates_no_traffic():
    events = [io_event(0.1, kind=AccessType.CLOSE, block_count=0)]
    result = filter_execution(_execution(events))
    assert result.accesses == []


def test_accesses_sorted_by_time():
    events = [
        io_event(0.1, kind=AccessType.WRITE, block_start=1),
        io_event(35.0, block_start=50),
        io_event(35.1, block_start=60),
    ]
    result = filter_execution(_execution(events))
    times = [a.time for a in result.accesses]
    assert times == sorted(times)


def test_per_process_grouping():
    events = [
        io_event(0.1, pid=100, block_start=1),
    ]
    result = filter_execution(_execution(events))
    grouped = result.per_process()
    assert set(grouped) == {100}


def test_small_cache_passes_more_traffic_through():
    events = [
        io_event(0.1 * i, block_start=(i % 8) * 4, block_count=4)
        for i in range(1, 33)
    ]
    big = filter_execution(
        _execution(events),
        CacheConfig(capacity_bytes=64 * 4096),
    )
    small = filter_execution(
        _execution(events),
        CacheConfig(capacity_bytes=4 * 4096),
    )
    assert len(small.accesses) > len(big.accesses)


def test_filter_application_runs_every_execution():
    trace = ApplicationTrace(
        "app",
        [
            _execution([io_event(0.1, block_start=1)]),
            ExecutionTrace.from_events(
                "app", 1, [io_event(0.2, block_start=2)],
                initial_pids=frozenset({100}),
            ),
        ],
    )
    results = filter_application(trace)
    assert [r.execution_index for r in results] == [0, 1]
    # Fresh cache per execution: both cold reads miss.
    assert all(len(r.accesses) == 1 for r in results)


def test_coalesce_writebacks_groups_by_time_pid_inode():
    writebacks = [
        WriteBack(time=30.0, block=1, inode=9, pid=1),
        WriteBack(time=30.0, block=2, inode=9, pid=1),
        WriteBack(time=30.0, block=3, inode=8, pid=1),
        WriteBack(time=60.0, block=4, inode=9, pid=1),
    ]
    records = coalesce_writebacks(writebacks)
    assert len(records) == 3
    first = records[0]
    assert first["block_count"] == 1 or first["block_count"] == 2
    assert {r["time"] for r in records} == {30.0, 60.0}
