"""Parallel parameter sweeps over the experiment-cell layer.

Sweeps the timeout predictor's timer across the six-application suite
twice — serially and on a process pool — shows that the results are
bit-identical, and prints per-cell progress while the parallel run is
underway.  This is the machinery behind ``--jobs`` on the CLI and the
ablation benchmarks.

Run:  python examples/parallel_sweep.py [jobs]

jobs defaults to every core (the sweep decomposes into
len(TIMEOUTS) × 6 application cells plus 6 shared baseline cells).
"""

import sys
import time

from repro import ExperimentRunner, SimulationConfig, build_suite
from repro.predictors.registry import tp_spec
from repro.sim.resilience import stderr_progress
from repro.sim.sweep import render_sweep, sweep

TIMEOUTS = (2.0, 5.445, 10.0, 20.0, 60.0)


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    runner = ExperimentRunner(
        build_suite(scale=0.3), SimulationConfig(), jobs=jobs
    )
    print(f"sweeping TP timeouts {TIMEOUTS} over {len(runner.suite)} "
          f"applications with {runner.jobs} worker(s)\n")
    # Pay the one-time cache-filtering pass up front so the serial and
    # parallel timings below compare pure simulation work.
    runner.prewarm()

    started = time.time()
    serial = sweep(
        runner, TIMEOUTS,
        make_spec=lambda t, cfg: tp_spec(cfg, timeout=t),
        jobs=1,
    )
    serial_seconds = time.time() - started

    started = time.time()
    parallel = sweep(
        runner, TIMEOUTS,
        make_spec=lambda t, cfg: tp_spec(cfg, timeout=t),
        jobs=runner.jobs,
        progress=stderr_progress,
    )
    parallel_seconds = time.time() - started

    print()
    print(render_sweep(parallel, "TP timeout sweep (parallel)"))
    print()
    print(f"serial   : {serial_seconds:6.2f} s")
    print(f"parallel : {parallel_seconds:6.2f} s  ({runner.jobs} workers)")
    print(f"identical: {serial == parallel}")


if __name__ == "__main__":
    main()
