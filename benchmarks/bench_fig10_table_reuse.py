"""Figure 10 — Predictor table reuse.

PCAP vs PCAPa and LT vs LTa (the 'a' variants discard their tables at
application exit), with hits and misses split by primary vs backup
predictor — the paper's case that cross-execution reuse is what makes
sophisticated predictors worthwhile.
"""

from conftest import run_once

from repro.analysis.compare import fig10_checks, render_checks
from repro.analysis.figures import (
    FIG10_PREDICTORS,
    average_bars,
    build_fig10,
)
from repro.analysis.paper_data import PAPER_FIG10_SPLIT
from repro.analysis.report import render_accuracy_figure


def test_fig10_table_reuse(benchmark, full_runner):
    figure = run_once(
        benchmark,
        lambda: build_fig10(full_runner.run_matrix(FIG10_PREDICTORS)),
    )
    print()
    print(render_accuracy_figure(
        figure, "Figure 10: Predictor table reuse (measured)",
        split_sources=True,
    ))
    for name, (primary, backup) in PAPER_FIG10_SPLIT.items():
        avg = average_bars(figure, name)
        print(f"  paper     {name:7s} hitP={primary:6.1%} "
              f"hitB={backup:6.1%}   (measured hitP={avg.hit_primary:6.1%} "
              f"hitB={avg.hit_backup:6.1%})")
    checks = fig10_checks(figure)
    print(render_checks(checks))
    assert all(check.passed for check in checks), render_checks(checks)

    # Paper's headline: reuse multiplies the primary predictor's share of
    # correct predictions severalfold (paper: fourfold).
    pcap = average_bars(figure, "PCAP")
    pcap_a = average_bars(figure, "PCAPa")
    assert pcap.hit_primary >= 1.8 * max(pcap_a.hit_primary, 1e-9)
