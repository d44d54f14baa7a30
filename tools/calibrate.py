"""Calibration helper for workload-model tuning.

Compares the generated suite against the paper's Table 1 and runs the
headline predictors for a quick look at Figures 6-8.  This is a thin
wrapper over the public APIs (``repro.workloads.calibration_report`` and
the figure builders); run it after touching any workload model.

Usage:  python tools/calibrate.py [scale] [table1|figures|all]
"""

from __future__ import annotations

import sys
import time

from repro.analysis import (
    FIG6_PREDICTORS,
    FIG8_PREDICTORS,
    build_fig6,
    build_fig7,
    build_fig8,
    render_accuracy_figure,
    render_energy_figure,
)
from repro.config import SimulationConfig
from repro.sim import ExperimentRunner
from repro.workloads import build_suite, calibration_report, render_calibration


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    what = sys.argv[2] if len(sys.argv) > 2 else "all"
    started = time.time()
    runner = ExperimentRunner(build_suite(scale=scale), SimulationConfig())
    print(f"[suite generated in {time.time() - started:.1f}s]")
    if what in ("table1", "all"):
        print(render_calibration(calibration_report(runner)))
    if what in ("figures", "all"):
        started = time.time()
        local = runner.run_matrix(FIG6_PREDICTORS, mode="local")
        # Figure 7's predictors are a subset of Figure 8's.
        matrix = runner.run_matrix(FIG8_PREDICTORS)
        print()
        print(render_accuracy_figure(build_fig6(local), "Figure 6 (local)"))
        print()
        print(render_accuracy_figure(build_fig7(matrix), "Figure 7 (global)"))
        print()
        print(render_energy_figure(build_fig8(matrix)))
        print(f"[figures in {time.time() - started:.1f}s]")


if __name__ == "__main__":
    main()
