"""Figure 7 — Global shutdown predictor accuracy.

The complete system-wide predictor (per-process locals combined by the
Global Shutdown Predictor) over every application's merged disk stream.
"""

from conftest import run_once

from repro.analysis.compare import fig7_checks, render_checks
from repro.analysis.figures import (
    FIG7_PREDICTORS,
    average_bars,
    build_fig7,
)
from repro.analysis.paper_data import PAPER_FIG7_AVERAGES
from repro.analysis.report import render_accuracy_figure


def test_fig7_global_accuracy(benchmark, full_runner):
    figure = run_once(
        benchmark,
        lambda: build_fig7(full_runner.run_matrix(FIG7_PREDICTORS)),
    )
    print()
    print(render_accuracy_figure(
        figure, "Figure 7: Global shutdown predictor (measured)"
    ))
    for name, paper in PAPER_FIG7_AVERAGES.items():
        avg = average_bars(figure, name)
        print(f"  paper     {name:7s} hit={paper.hit:6.1%} "
              f"miss={paper.miss:6.1%}   (measured hit={avg.hit:6.1%} "
              f"miss={avg.miss:6.1%})")
    checks = fig7_checks(figure)
    print(render_checks(checks))
    assert all(check.passed for check in checks), render_checks(checks)

    # Headline claim: PCAP's global coverage lands in the mid-80s with
    # roughly 10% mispredictions (paper: 86% / 10%).
    pcap = average_bars(figure, "PCAP")
    assert 0.75 <= pcap.hit <= 0.95
    assert pcap.miss <= 0.20
