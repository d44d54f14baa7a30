"""Importing real ``strace`` output.

The paper collected its traces with a modified ``strace`` recording the
PC, access type, time, file descriptor, and file location of every I/O,
plus forks and exits.  Stock ``strace`` gets remarkably close:

    strace -f -ttt -i -e trace=read,write,openat,open,close,fsync,
                        fdatasync,fork,clone,exit_group  <app>

produces lines like::

    12345 1370282478.807804 [00007f2728f3d600] read(3, "..."..., 4096) = 4096
    12345 1370282478.809000 [00007f2728f3d6aa] openat(AT_FDCWD, "/etc/hosts", O_RDONLY) = 4
    12345 1370282478.901100 [00007f2728f3d700] clone(child_stack=NULL, ...) = 12346
    12346 1370282479.100000 +++ exited with 0 +++

:func:`parse_strace` turns such text into an
:class:`~repro.traces.trace.ExecutionTrace`:

* the bracketed instruction pointer becomes the event PC (folded to 32
  bits, matching the paper's 4-byte signatures);
* timestamps are rebased so the trace starts at zero;
* file "locations" are synthesized by tracking each (pid, fd) to the
  path it was opened on: every path gets a stable inode and a block
  cursor advanced by the bytes each syscall moves (the cache simulator
  only needs identity and extent, not true LBAs);
* ``fork``/``clone``/``vfork`` returns create :class:`ForkEvent`s, exit
  markers create :class:`ExitEvent`s.

Lines that don't match (signal deliveries, unfinished/resumed pairs,
unsupported syscalls) are skipped and counted, never fatal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional, Union

from repro.errors import TraceError, TraceFormatError
from repro.traces.events import AccessType, ExitEvent, ForkEvent, IOEvent
from repro.traces.trace import ExecutionTrace
from repro.workloads.rng import stable_seed

#: Syscall name → access type.
_SYSCALL_KINDS: dict[str, AccessType] = {
    "read": AccessType.READ,
    "pread": AccessType.READ,
    "pread64": AccessType.READ,
    "readv": AccessType.READ,
    "write": AccessType.WRITE,
    "pwrite": AccessType.WRITE,
    "pwrite64": AccessType.WRITE,
    "writev": AccessType.WRITE,
    "fsync": AccessType.SYNC_WRITE,
    "fdatasync": AccessType.SYNC_WRITE,
    "open": AccessType.OPEN,
    "openat": AccessType.OPEN,
    "close": AccessType.CLOSE,
}

_FORK_CALLS = ("fork", "vfork", "clone", "clone3")

_BLOCK_SIZE = 4096

# 12345 1370282478.807804 [00007f2728f3d600] read(3, ...) = 4096
_LINE = re.compile(
    r"^(?:(?P<pid>\d+)\s+)?"
    r"(?P<time>\d+\.\d+)\s+"
    r"(?:\[\s*(?P<pc>[0-9a-fA-F]+)\]\s+)?"
    r"(?P<call>\w+)\((?P<args>.*?)\)\s*=\s*(?P<result>-?\d+|\?)"
)

_EXITED = re.compile(
    r"^(?:(?P<pid>\d+)\s+)?(?P<time>\d+\.\d+)\s+\+\+\+ exited"
)

_QUOTED_PATH = re.compile(r'"([^"]*)"')


@dataclass(slots=True)
class ImportStats:
    """What the importer did with the input."""

    io_events: int = 0
    forks: int = 0
    exits: int = 0
    skipped_lines: int = 0
    failed_syscalls: int = 0


@dataclass(slots=True)
class _FdTable:
    """Tracks (pid, fd) → logical file, with per-file block cursors."""

    application: str
    paths: dict[tuple[int, int], str] = field(default_factory=dict)
    cursors: dict[str, int] = field(default_factory=dict)

    def open(self, pid: int, fd: int, path: str) -> None:
        self.paths[(pid, fd)] = path

    def close(self, pid: int, fd: int) -> None:
        self.paths.pop((pid, fd), None)

    def locate(self, pid: int, fd: int, nbytes: int) -> tuple[int, int, int]:
        """(inode, block_start, block_count) for an access via ``fd``."""
        path = self.paths.get((pid, fd), f"<fd:{fd}>")
        inode = stable_seed("strace-inode", self.application, path) & 0xFFFFF
        blocks = max(1, -(-max(nbytes, 0) // _BLOCK_SIZE))
        cursor = self.cursors.get(path, 0)
        self.cursors[path] = cursor + blocks
        base = inode << 28
        return inode, base + cursor, blocks


def _fold_pc(raw: Optional[str]) -> int:
    if raw is None:
        return 0x10
    value = int(raw, 16)
    # 64-bit addresses fold into the paper's 4-byte signature space.
    return ((value & 0xFFFFFFFF) ^ (value >> 32)) & 0xFFFFFFFF or 0x10


def parse_strace(
    source: Union[str, IO[str], Iterable[str]],
    *,
    application: str = "imported",
    execution_index: int = 0,
    root_pid: Optional[int] = None,
) -> tuple[ExecutionTrace, ImportStats]:
    """Parse strace text into an execution trace.

    ``root_pid`` names the initially-alive process; by default the pid
    of the first parsed line (or 1 for single-process traces without
    pid columns) is used.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    elif hasattr(source, "read"):
        lines = source  # file-like: iterate lines
    else:
        lines = source

    stats = ImportStats()
    fds = _FdTable(application=application)
    events: list = []
    #: Pids that appeared without a fork line (already running when the
    #: trace started): they become the execution's initial pids.
    roots: set[int] = set()
    #: Pids created by an observed fork/clone.
    forked: set[int] = set()
    #: Pids whose exit has been recorded; later events from them (trace
    #: interleaving artifacts) are dropped.
    exited: set[int] = set()
    first_time: Optional[float] = None
    last_time = 0.0
    inferred_root: Optional[int] = root_pid

    def ensure_known(pid: int) -> bool:
        """Register ``pid``; False when it already exited (drop line).

        Pid 0 never appears in real strace output; such lines are noise.
        """
        if pid <= 0 or pid in exited:
            stats.skipped_lines += 1
            return False
        if pid not in forked:
            roots.add(pid)
        return True

    def rebase(raw_time: str) -> float:
        # ``strace -f`` flushes per-process buffers independently, so
        # timestamps can regress slightly across pids; clamping to a
        # monotone clock keeps line order and event order consistent
        # (liveness would otherwise break, e.g. an I/O sorting after
        # its process's exit).
        nonlocal first_time, last_time
        value = float(raw_time)
        if first_time is None:
            first_time = value
        value = max(0.0, value - first_time)
        last_time = max(last_time, value)
        return last_time

    for line in lines:
        line = line.strip()
        if not line:
            continue
        exit_match = _EXITED.match(line)
        if exit_match:
            pid = int(exit_match.group("pid") or inferred_root or 1)
            if inferred_root is None and pid > 0:
                inferred_root = pid
            if not ensure_known(pid):
                continue
            events.append(
                ExitEvent(time=rebase(exit_match.group("time")), pid=pid)
            )
            exited.add(pid)
            stats.exits += 1
            continue
        match = _LINE.match(line)
        if not match:
            stats.skipped_lines += 1
            continue
        pid = int(match.group("pid") or inferred_root or 1)
        if inferred_root is None and pid > 0:
            inferred_root = pid
        if not ensure_known(pid):
            continue
        time = rebase(match.group("time"))
        call = match.group("call")
        result_text = match.group("result")
        result = None if result_text == "?" else int(result_text)

        if call in _FORK_CALLS:
            if (
                result is not None
                and result > 0
                and result != pid
                and result not in forked
                and result not in roots
                and result not in exited
            ):
                events.append(
                    ForkEvent(time=time, pid=result, parent_pid=pid)
                )
                forked.add(result)
                stats.forks += 1
            else:
                stats.failed_syscalls += 1
            continue

        kind = _SYSCALL_KINDS.get(call)
        if kind is None:
            stats.skipped_lines += 1
            continue
        if result is not None and result < 0:
            stats.failed_syscalls += 1
            continue

        args = match.group("args")
        if kind == AccessType.OPEN:
            path_match = _QUOTED_PATH.search(args)
            path = path_match.group(1) if path_match else "<anonymous>"
            if result is not None:
                fds.open(pid, result, path)
            inode = stable_seed("strace-inode", application, path) & 0xFFFFF
            events.append(
                IOEvent(
                    time=time, pid=pid, pc=_fold_pc(match.group("pc")),
                    fd=result if result is not None else -1, kind=kind,
                    inode=inode, block_start=inode << 28, block_count=1,
                )
            )
            stats.io_events += 1
            continue

        fd = _leading_int(args)
        if kind == AccessType.CLOSE:
            if fd is not None:
                fds.close(pid, fd)
            continue
        if fd is None:
            stats.skipped_lines += 1
            continue
        nbytes = result if result is not None else _BLOCK_SIZE
        inode, block_start, block_count = fds.locate(pid, fd, nbytes)
        events.append(
            IOEvent(
                time=time, pid=pid, pc=_fold_pc(match.group("pc")),
                fd=fd, kind=kind, inode=inode,
                block_start=block_start, block_count=block_count,
            )
        )
        stats.io_events += 1

    if inferred_root is None or not (roots | forked):
        raise TraceFormatError("no parseable strace lines in input")
    # Any processes still alive get synthetic exits at the trace end so
    # the execution validates.
    end = max((e.time for e in events), default=0.0)
    for pid in sorted((roots | forked) - exited):
        events.append(ExitEvent(time=end + 0.001, pid=pid))
        stats.exits += 1

    execution = ExecutionTrace.from_events(
        application, execution_index, events, initial_pids=roots
    ).sorted()
    try:
        execution.validate()
    except TraceFormatError:
        raise
    except TraceError as error:
        # Garbled input can still assemble into a contradictory trace
        # (an exit for a pid the importer never saw alive, say); report
        # it as a format problem rather than crashing downstream.
        raise TraceFormatError(f"inconsistent strace input: {error}") from error
    return execution, stats


def _leading_int(args: str) -> Optional[int]:
    """First integer argument of a syscall argument list."""
    match = re.match(r"\s*(-?\d+)", args)
    return int(match.group(1)) if match else None
