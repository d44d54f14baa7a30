"""Figure 9 — Predictor optimizations (history and file descriptors).

PCAP / PCAPh / PCAPf / PCAPfh global accuracy with the primary/backup
attribution split of the paper's bars.
"""

from conftest import run_once

from repro.analysis.compare import fig9_checks, render_checks
from repro.analysis.figures import (
    FIG9_PREDICTORS,
    average_bars,
    build_fig9,
)
from repro.analysis.paper_data import (
    PAPER_FIG9_AVERAGES,
    PAPER_FIG9_MOZILLA_MISS,
)
from repro.analysis.report import render_accuracy_figure


def test_fig9_optimizations(benchmark, full_runner):
    figure = run_once(
        benchmark,
        lambda: build_fig9(full_runner.run_matrix(FIG9_PREDICTORS)),
    )
    print()
    print(render_accuracy_figure(
        figure, "Figure 9: Predictor optimizations (measured)",
        split_sources=True,
    ))
    for name, paper in PAPER_FIG9_AVERAGES.items():
        avg = average_bars(figure, name)
        print(f"  paper     {name:7s} hit={paper.hit:6.1%} "
              f"miss={paper.miss:6.1%}   (measured hit={avg.hit:6.1%} "
              f"miss={avg.miss:6.1%})")
    moz = figure.get("mozilla")
    if moz:
        print(
            f"  mozilla miss: PCAP {moz['PCAP'].miss:.1%} -> PCAPh "
            f"{moz['PCAPh'].miss:.1%} "
            f"(paper {PAPER_FIG9_MOZILLA_MISS['PCAP']:.0%} -> "
            f"{PAPER_FIG9_MOZILLA_MISS['PCAPh']:.0%})"
        )
    checks = fig9_checks(figure)
    print(render_checks(checks))
    assert all(check.passed for check in checks), render_checks(checks)
