"""Figure 6 — Local shutdown predictor accuracy.

Per-process evaluation of TP, LT, and PCAP over every application,
printing the hit / not-predicted / miss fractions the paper's stacked
bars show, plus the across-application averages quoted in §6.1.
"""

from conftest import run_once

from repro.analysis.compare import fig6_checks, render_checks
from repro.analysis.figures import (
    FIG6_PREDICTORS,
    average_bars,
    build_fig6,
)
from repro.analysis.paper_data import PAPER_FIG6_AVERAGES
from repro.analysis.report import render_accuracy_figure


def test_fig6_local_accuracy(benchmark, full_runner):
    figure = run_once(
        benchmark,
        lambda: build_fig6(
            full_runner.run_matrix(FIG6_PREDICTORS, mode="local")
        ),
    )
    print()
    print(render_accuracy_figure(
        figure, "Figure 6: Local shutdown predictor (measured)"
    ))
    for name, paper in PAPER_FIG6_AVERAGES.items():
        avg = average_bars(figure, name)
        print(f"  paper     {name:7s} hit={paper.hit:6.1%} "
              f"miss={paper.miss:6.1%}")
    checks = fig6_checks(figure)
    print(render_checks(checks))
    assert all(check.passed for check in checks), render_checks(checks)
