#!/usr/bin/env python3
"""Time the page-cache filter's two paths and check that they agree.

``filter_execution(execution, config)`` decides the plain LRU cache over
whole-execution columns; ``cache=PageCache(config)`` replays the same
execution row by row.  This times both, in alternating rounds, on

* the generated suite at ``--scale`` (every execution), and
* two traces on which every re-touch needs a distinct-block count (the
  column path's worst case): a cycle over C + 1 blocks, and ``--rows``
  distinct blocks read twice,

asserts equal results everywhere, and prints each path's median time
and the column/loop ratio.  Run from the repository root::

    PYTHONPATH=src python tools/time_filter_paths.py --scale 0.5 --rounds 5
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.cache.filter import filter_execution
from repro.cache.page_cache import CacheConfig, PageCache
from repro.traces.trace import ExecutionTrace, columns_from_rows
from repro.workloads import build_suite


def _reads(blocks: list[int]) -> ExecutionTrace:
    rows = [
        (0, 0.001 * i, 100, 0x1000, 3, 0, 7, block, 1, 0)
        for i, block in enumerate(blocks)
    ]
    return ExecutionTrace("worst", 0, columns_from_rows(rows), frozenset({100}))


def _time(executions, config, rounds: int) -> tuple[float, float]:
    columns, loop = [], []
    for round_index in range(rounds):
        order = ("columns", "loop") if round_index % 2 == 0 else ("loop", "columns")
        for path in order:
            start = time.perf_counter()
            if path == "columns":
                fast = [filter_execution(e, config) for e in executions]
                columns.append(time.perf_counter() - start)
            else:
                slow = [
                    filter_execution(e, config, cache=PageCache(config))
                    for e in executions
                ]
                loop.append(time.perf_counter() - start)
        if fast != slow:
            raise SystemExit("the filter's two paths disagree")
    return statistics.median(columns), statistics.median(loop)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    config = CacheConfig()
    capacity = config.capacity_blocks
    workloads = {
        f"suite, scale {args.scale}": [
            execution
            for trace in build_suite(scale=args.scale).values()
            for execution in trace
        ],
        f"cycle over C + 1 = {capacity + 1} blocks, {args.rows} rows": [
            _reads([i % (capacity + 1) for i in range(args.rows)])
        ],
        f"{args.rows} distinct blocks read twice": [
            _reads(list(range(args.rows)) * 2)
        ],
    }
    for name, executions in workloads.items():
        columns, loop = _time(executions, config, args.rounds)
        print(f"{name}: columns {columns:.3f} s, loop {loop:.3f} s, "
              f"ratio {columns / loop:.2f} (median of {args.rounds})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
