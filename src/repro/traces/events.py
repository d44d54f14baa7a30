"""Trace event records.

The paper collects traces with a modified ``strace`` that records, for
every I/O operation: the program counter of the library call that issued
it, the access type, the time, the file descriptor, and the file location
on disk — plus ``fork`` and ``exit`` events of the processes making up the
application.  These records are the exact schema here.

``blocks`` carries the 4 KB file blocks the operation touches (the "file
location on disk"), which is what the file-cache simulator needs; block
ids are globally unique integers (each file owns a region of the block
address space).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union


class AccessType(enum.Enum):
    """Kind of I/O operation, as recorded by the tracer."""

    READ = "read"
    #: Buffered write: dirties the cache, written back later.
    WRITE = "write"
    #: Synchronous write (fsync-style document saves): goes straight to
    #: the disk, leaving no dirty data behind.
    SYNC_WRITE = "sync_write"
    OPEN = "open"
    CLOSE = "close"
    #: Write-back of dirty cache data issued by the kernel flush daemon.
    FLUSH = "flush"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AccessType.{self.name}"


#: Pseudo program counter attributed to kernel write-back activity.
KERNEL_FLUSH_PC: int = 0xFFFF0000


@dataclass(frozen=True, slots=True)
class IOEvent:
    """One traced I/O operation.

    The touched file blocks are the contiguous range
    ``[block_start, block_start + block_count)``; real I/O is
    overwhelmingly sequential within one operation, and a range keeps the
    per-event footprint constant (full traces hold ~10^6 events).
    """

    time: float
    pid: int
    pc: int
    fd: int
    kind: AccessType
    inode: int
    block_start: int = 0
    block_count: int = 0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        if not 0 <= self.pc < 2**32:
            raise ValueError("program counters are 32-bit addresses")
        if self.block_count < 0:
            raise ValueError("block count must be non-negative")

    def __reduce__(self):
        # Frozen-slots dataclasses pickle through a generic setstate that
        # re-introspects fields() per object; full traces hold ~10^6
        # events, so reconstruct positionally instead (several times
        # faster on both dump and load, validation still runs).
        return (
            IOEvent,
            (
                self.time, self.pid, self.pc, self.fd, self.kind,
                self.inode, self.block_start, self.block_count,
            ),
        )

    @property
    def blocks(self) -> range:
        """The touched block ids."""
        return range(self.block_start, self.block_start + self.block_count)

    @property
    def is_write(self) -> bool:
        """Whether the operation moves data toward the disk."""
        return self.kind in (
            AccessType.WRITE,
            AccessType.SYNC_WRITE,
            AccessType.FLUSH,
        )


@dataclass(frozen=True, slots=True)
class ForkEvent:
    """A process ``parent_pid`` forked ``pid`` at ``time``."""

    time: float
    pid: int
    parent_pid: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        if self.pid == self.parent_pid:
            raise ValueError("a process cannot fork itself")

    def __reduce__(self):
        return (ForkEvent, (self.time, self.pid, self.parent_pid))


@dataclass(frozen=True, slots=True)
class ExitEvent:
    """Process ``pid`` exited at ``time``."""

    time: float
    pid: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("event time must be non-negative")

    def __reduce__(self):
        return (ExitEvent, (self.time, self.pid))


TraceEvent = Union[IOEvent, ForkEvent, ExitEvent]


def event_sort_key(event: TraceEvent) -> tuple[float, int]:
    """Stable ordering: by time, with forks before I/O before exits at the
    same instant so liveness brackets any simultaneous I/O."""
    if isinstance(event, ForkEvent):
        rank = 0
    elif isinstance(event, IOEvent):
        rank = 1
    else:
        rank = 2
    return (event.time, rank)
