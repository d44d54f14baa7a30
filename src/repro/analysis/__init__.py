"""Analysis layer: paper targets, table/figure builders, renderers,
and shape comparison against the paper's claims."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".experiments_report": ("generate_report",),
    ".svg_charts": ("render_accuracy_svg", "render_energy_svg"),
    ".ascii_charts": (
        "accuracy_bar", "energy_bar", "render_accuracy_chart",
        "render_energy_chart",
    ),
    ".compare": (
        "ShapeCheck", "all_checks", "fig6_checks", "fig7_checks",
        "fig8_checks", "fig9_checks", "fig10_checks", "render_checks",
    ),
    ".figures": (
        "FIG6_PREDICTORS", "FIG7_PREDICTORS", "FIG8_PREDICTORS",
        "FIG9_PREDICTORS", "FIG10_PREDICTORS", "GLOBAL_PREDICTORS",
        "AccuracyBar", "AccuracyFigure", "EnergyBar", "EnergyFigure",
        "average_bars", "average_savings", "build_fig6", "build_fig7",
        "build_fig8", "build_fig9", "build_fig10",
    ),
    ".paper_data": (
        "PAPER_FIG6_AVERAGES", "PAPER_FIG7_AVERAGES", "PAPER_FIG8_SAVINGS",
        "PAPER_FIG9_AVERAGES", "PAPER_FIG10_SPLIT", "PAPER_TABLE1",
        "PAPER_TABLE2", "PAPER_TABLE3", "PaperAccuracy",
    ),
    ".report": (
        "render_accuracy_figure", "render_energy_figure", "render_table1",
        "render_table2", "render_table3",
    ),
    ".tables": (
        "TABLE3_VARIANTS", "Table1Row", "Table2Row", "Table3Row",
        "build_table1", "build_table2", "build_table3",
    ),
    ".timeline": (
        "describe_event", "render_timeline", "render_trace_summary",
        "timeline_summary",
    ),
})
