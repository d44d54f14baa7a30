"""Automated EXPERIMENTS-style report generation.

Runs every table and figure, renders the measured-vs-paper comparison
and the shape-check verdicts, and emits one self-contained Markdown
document — the CLI's ``report`` subcommand and CI pipelines use it to
keep recorded results in sync with the code.  Like ``repro reproduce``
it runs one local matrix (Figure 6) and one global matrix, over
:data:`REPORT_PREDICTORS`, that every global section selects from.
"""

from __future__ import annotations

from repro.analysis.compare import (
    fig6_checks,
    fig7_checks,
    fig8_checks,
    fig9_checks,
    fig10_checks,
)
from repro.analysis.figures import (
    FIG6_PREDICTORS,
    GLOBAL_PREDICTORS,
    AccuracyFigure,
    average_bars,
    average_savings,
    build_fig6,
    build_fig7,
    build_fig8,
    build_fig9,
    build_fig10,
)
from repro.analysis.paper_data import (
    PAPER_FIG6_AVERAGES,
    PAPER_FIG7_AVERAGES,
    PAPER_FIG8_SAVINGS,
    PAPER_FIG9_AVERAGES,
    PAPER_FIG10_SPLIT,
    PAPER_TABLE1,
    PAPER_TABLE3,
)
from repro.analysis.tables import build_table1, build_table3
from repro.sim.experiment import ExperimentRunner
from repro.sim.metrics import PredictionStats
from repro.workloads.extremes import build_extremes

#: Predictor columns of the learned-family extension sections.
LEARNED_REPORT_PREDICTORS = ("TP", "PCAP", "QDPM", "SKI", "PI")

#: The lanes of the report's one global matrix: the paper's global
#: figures and Table 3, then the learned section and its Base baseline.
REPORT_PREDICTORS = tuple(
    dict.fromkeys(GLOBAL_PREDICTORS + ("Base",) + LEARNED_REPORT_PREDICTORS)
)


def _accuracy_table(
    figure: AccuracyFigure, paper_averages: dict
) -> list[str]:
    lines = [
        "| predictor | hit | miss | paper hit | paper miss |",
        "|---|---|---|---|---|",
    ]
    for name in next(iter(figure.values())):
        avg = average_bars(figure, name)
        paper = paper_averages.get(name)
        paper_hit = f"{paper.hit:.0%}" if paper else "—"
        paper_miss = f"{paper.miss:.0%}" if paper else "—"
        lines.append(
            f"| {name} | {avg.hit:.1%} | {avg.miss:.1%} "
            f"| {paper_hit} | {paper_miss} |"
        )
    return lines


def _checks_section(checks) -> list[str]:
    lines = []
    for check in checks:
        status = "✅" if check.passed else "❌"
        lines.append(f"- {status} {check.name} — {check.detail}")
    return lines


def generate_report(runner: ExperimentRunner, *, scale: float) -> str:
    """One Markdown document with every experiment's measured numbers."""
    parts: list[str] = [
        "# Reproduction report (generated)",
        "",
        f"Workload scale: {scale} (1.0 = the paper's Table 1 magnitudes).",
        "All numbers measured by this run; paper values inline.",
        "",
        "## Table 1 — applications",
        "",
        "| app | executions | global idle (paper) | local idle (paper) "
        "| total I/Os (paper) |",
        "|---|---|---|---|---|",
    ]
    # Table 1 runs first: it fills the runner's filter memo, which the
    # local matrix then reads instead of filtering each execution again.
    for row in build_table1(runner):
        paper = PAPER_TABLE1.get(row.application, (0, 0, 0, 0))
        parts.append(
            f"| {row.application} | {row.executions} "
            f"| {row.global_idle_periods} ({paper[1]}) "
            f"| {row.local_idle_periods} ({paper[2]}) "
            f"| {row.total_ios} ({paper[3]}) |"
        )
    local = runner.run_matrix(FIG6_PREDICTORS, mode="local")
    matrix = runner.run_matrix(REPORT_PREDICTORS)

    fig6 = build_fig6(local)
    parts += ["", "## Figure 6 — local predictors", ""]
    parts += _accuracy_table(fig6, PAPER_FIG6_AVERAGES)
    parts += ["", *_checks_section(fig6_checks(fig6))]

    fig7 = build_fig7(matrix)
    parts += ["", "## Figure 7 — global predictor", ""]
    parts += _accuracy_table(fig7, PAPER_FIG7_AVERAGES)
    parts += ["", *_checks_section(fig7_checks(fig7))]

    fig8 = build_fig8(matrix)
    parts += [
        "",
        "## Figure 8 — energy",
        "",
        "| predictor | savings | paper |",
        "|---|---|---|",
    ]
    for name in ("Ideal", "TP", "LT", "PCAP"):
        paper = PAPER_FIG8_SAVINGS.get(name)
        parts.append(
            f"| {name} | {average_savings(fig8, name):.1%} "
            f"| {paper:.0%} |" if paper is not None else
            f"| {name} | {average_savings(fig8, name):.1%} | — |"
        )
    parts += ["", *_checks_section(fig8_checks(fig8))]

    fig9 = build_fig9(matrix)
    parts += ["", "## Figure 9 — optimizations", ""]
    parts += _accuracy_table(fig9, PAPER_FIG9_AVERAGES)
    parts += ["", *_checks_section(fig9_checks(fig9))]

    fig10 = build_fig10(matrix)
    parts += [
        "",
        "## Figure 10 — table reuse",
        "",
        "| variant | primary hits | backup hits | paper primary "
        "| paper backup |",
        "|---|---|---|---|---|",
    ]
    for name in next(iter(fig10.values())):
        avg = average_bars(fig10, name)
        paper = PAPER_FIG10_SPLIT.get(name)
        paper_primary = f"{paper[0]:.0%}" if paper else "—"
        paper_backup = f"{paper[1]:.0%}" if paper else "—"
        parts.append(
            f"| {name} | {avg.hit_primary:.1%} | {avg.hit_backup:.1%} "
            f"| {paper_primary} | {paper_backup} |"
        )
    parts += ["", *_checks_section(fig10_checks(fig10))]

    parts += ["", "## Table 3 — prediction-table storage", ""]
    parts += [
        "| app | " + " | ".join(
            f"{v} (paper)" for v in ("PCAP", "PCAPf", "PCAPh", "PCAPfh")
        ) + " |",
        "|---|---|---|---|---|",
    ]
    for row in build_table3(matrix):
        paper = PAPER_TABLE3.get(row.application, {})
        cells = " | ".join(
            f"{row.entries[v]} ({paper.get(v, '—')})"
            for v in ("PCAP", "PCAPf", "PCAPh", "PCAPfh")
        )
        parts.append(f"| {row.application} | {cells} |")

    parts += [
        "",
        "## Extension — learned predictors (beyond the paper)",
        "",
        "Q-DPM (tabular Q-learning, Li et al. arXiv:0710.4739), the",
        "learning-augmented ski rental over PCAP's table as advice",
        "(Antoniadis et al. arXiv:2110.13116), and a PI feedback",
        "controller on observed slowdown (Cerf et al. arXiv:2107.02426),",
        "on the desktop suite.  Savings are relative to Base.",
        "",
        "| predictor | hit | miss | savings |",
        "|---|---|---|---|",
    ]
    base_energy = sum(
        matrix[app]["Base"].energy for app in runner.applications
    )
    for name in LEARNED_REPORT_PREDICTORS:
        stats = PredictionStats()
        energy = 0.0
        for app in runner.applications:
            result = matrix[app][name]
            stats.merge(result.stats)
            energy += result.energy
        parts.append(
            f"| {name} | {stats.hit_fraction:.1%} "
            f"| {stats.miss_fraction:.1%} "
            f"| {1.0 - energy / base_energy:.1%} |"
        )

    parts += [
        "",
        "## Extension — adversarial envelope (PC aliasing)",
        "",
        "The same predictors on the envelope workloads, including the",
        "`pc_alias` adversary whose two routines execute the same call",
        "sites in opposite order: they alias to one arithmetic-sum path",
        "signature (§4.1) while carrying opposite idle behaviour, so",
        "PCAP's *primary* fires into every aliased short gap — damage",
        "the backup-timeout safety argument (§4.3) cannot catch.  The",
        "λ-hedged ski-rental consumer of the same table and the",
        "idle-history policies stay robust.",
        "",
        "| workload | predictor | hit | miss | energy |",
        "|---|---|---|---|---|",
    ]
    envelope = ExperimentRunner(build_extremes(executions=12), runner.config)
    envelope_matrix = envelope.run_matrix(LEARNED_REPORT_PREDICTORS)
    for app in envelope.applications:
        for name in LEARNED_REPORT_PREDICTORS:
            result = envelope_matrix[app][name]
            parts.append(
                f"| {app} | {name} | {result.stats.hit_fraction:.1%} "
                f"| {result.stats.miss_fraction:.1%} "
                f"| {result.energy:.1f} J |"
            )

    checks = (
        fig6_checks(fig6) + fig7_checks(fig7) + fig8_checks(fig8)
        + fig9_checks(fig9) + fig10_checks(fig10)
    )
    passed = sum(1 for check in checks if check.passed)
    parts += ["", f"**{passed}/{len(checks)} shape checks passed.**", ""]
    return "\n".join(parts)
