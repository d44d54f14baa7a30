"""Reproduce every table and figure of the paper's evaluation section.

Prints Tables 1-3 and the data series of Figures 6-10 next to the
paper's reported numbers, then runs the qualitative shape checks.

Run:  python examples/reproduce_paper.py [scale] [jobs]

scale defaults to 0.5 (a few minutes); use 1.0 for the full Table-1
magnitudes (as the benchmarks do).  jobs defaults to $REPRO_JOBS (or
serial); pass 0 to use every core — the two matrices then fan out
across worker processes with results identical to a serial run.
"""

import sys
import time

from repro import ExperimentRunner, SimulationConfig, build_suite
from repro.analysis import (
    FIG6_PREDICTORS,
    GLOBAL_PREDICTORS,
    all_checks,
    build_fig6,
    build_fig7,
    build_fig8,
    build_fig9,
    build_fig10,
    build_table1,
    build_table2,
    build_table3,
    render_accuracy_figure,
    render_checks,
    render_energy_figure,
    render_table1,
    render_table2,
    render_table3,
)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else None
    config = SimulationConfig()
    started = time.time()
    print(f"generating the six-application suite at scale {scale} ...")
    runner = ExperimentRunner(
        build_suite(scale=scale), config, jobs=jobs
    )
    if runner.jobs > 1:
        print(f"running suite-level experiments on {runner.jobs} workers")

    print()
    print(render_table1(build_table1(runner)))
    print()
    print(render_table2(build_table2(config.disk)))
    print()

    # One local matrix for Figure 6, one global matrix that Figures
    # 7-10 and Table 3 all select their predictors from.
    local = runner.run_matrix(FIG6_PREDICTORS, mode="local")
    matrix = runner.run_matrix(GLOBAL_PREDICTORS)

    fig6 = build_fig6(local)
    print(render_accuracy_figure(fig6, "Figure 6: Local predictors"))
    print()
    fig7 = build_fig7(matrix)
    print(render_accuracy_figure(fig7, "Figure 7: Global predictors"))
    print()
    fig8 = build_fig8(matrix)
    print(render_energy_figure(fig8))
    print()
    fig9 = build_fig9(matrix)
    print(render_accuracy_figure(
        fig9, "Figure 9: Optimizations", split_sources=True
    ))
    print()
    fig10 = build_fig10(matrix)
    print(render_accuracy_figure(
        fig10, "Figure 10: Table reuse", split_sources=True
    ))
    print()
    print(render_table3(build_table3(matrix)))

    print()
    print("Shape checks against the paper's claims:")
    print(render_checks(all_checks(fig6, fig7, fig8, fig9, fig10)))
    print(f"\ntotal time: {time.time() - started:.1f} s")


if __name__ == "__main__":
    main()
