"""Analysis layer: tables, figures, renderers, shape checks.

Uses a deterministic toy suite so the figure builders' arithmetic is
verifiable; the real-suite shape checks live in the integration tests.
"""

import pytest

from repro.analysis.compare import (
    fig8_checks,
    fig10_checks,
    render_checks,
)
from repro.analysis.figures import (
    average_bars,
    average_savings,
    build_fig6,
    build_fig7,
    build_fig8,
    build_fig9,
    build_fig10,
)
from repro.analysis.paper_data import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
)
from repro.analysis.report import (
    render_accuracy_figure,
    render_energy_figure,
    render_table1,
    render_table2,
    render_table3,
)
from repro.analysis.tables import (
    TABLE3_VARIANTS,
    build_table1,
    build_table2,
    build_table3,
)
from repro.config import SimulationConfig
from repro.sim import experiment as experiment_module
from repro.sim.experiment import ExperimentRunner
from repro.traces.trace import ApplicationTrace
from tests.helpers import single_process_execution


@pytest.fixture(scope="module")
def runner():
    def make_trace(name, pc, executions):
        traces = []
        for index in range(executions):
            points = []
            t = 0.0
            # Each rep uses a distinct PC set (stable across executions):
            # no intra-execution repetition, so PCAPa's primary collapses
            # while reuse-enabled PCAP hits from execution 2 on.
            for rep in range(3):
                for j in range(3):
                    points.append((t, pc + rep * 256 + 16 * j))
                    t += 0.1
                t += 25.0
            traces.append(
                single_process_execution(
                    points, application=name, execution_index=index,
                    end_time=t,
                )
            )
        return ApplicationTrace(name, traces)

    suite = {
        "alpha": make_trace("alpha", 0x1000, 4),
        "mplayer": make_trace("mplayer", 0x9000, 3),
    }
    return ExperimentRunner(suite, SimulationConfig())


def test_table1_counts(runner):
    rows = build_table1(runner)
    by_app = {row.application: row for row in rows}
    assert by_app["alpha"].executions == 4
    assert by_app["alpha"].global_idle_periods == 12
    # Single process: local equals global.
    assert by_app["alpha"].local_idle_periods == 12
    assert by_app["alpha"].total_ios == 4 * 9


def test_table2_matches_paper(disk_params):
    rows = build_table2(disk_params)
    values = {row.name: row.value for row in rows}
    assert values["Busy power"] == PAPER_TABLE2["busy_power_w"]
    assert values["Breakeven time (derived)"] == pytest.approx(
        PAPER_TABLE2["breakeven_time_s"], abs=0.03
    )


def test_table3_reports_entry_counts(runner):
    rows = build_table3(runner, variants=("PCAP", "PCAPh"),
                        applications=("alpha",))
    assert rows[0].entries["PCAP"] >= 1
    assert rows[0].entries["PCAPh"] >= rows[0].entries["PCAP"]


def test_fig6_and_fig7_structures(runner):
    fig6 = build_fig6(runner, predictors=("TP", "PCAP"))
    fig7 = build_fig7(runner, predictors=("TP", "PCAP"))
    for figure in (fig6, fig7):
        assert set(figure) == {"alpha", "mplayer"}
        bar = figure["alpha"]["PCAP"]
        assert 0.0 <= bar.hit <= 1.2
        assert bar.opportunities > 0


def test_fig8_fractions_sum_to_one_for_base(runner):
    fig8 = build_fig8(runner, predictors=("Base", "Ideal", "TP"))
    base = fig8["alpha"]["Base"]
    assert base.total == pytest.approx(1.0)
    assert base.savings == pytest.approx(0.0)
    assert fig8["alpha"]["Ideal"].savings > 0


def test_fig9_and_fig10(runner):
    fig9 = build_fig9(runner, predictors=("PCAP", "PCAPh"))
    assert fig9["alpha"]["PCAPh"].predictor == "PCAPh"
    fig10 = build_fig10(runner)
    avg = average_bars(fig10, "PCAPa")
    assert avg.application == "average"


def test_average_bars_arithmetic(runner):
    figure = build_fig7(runner, predictors=("TP",))
    avg = average_bars(figure, "TP")
    manual = (figure["alpha"]["TP"].hit + figure["mplayer"]["TP"].hit) / 2
    assert avg.hit == pytest.approx(manual)


def test_average_savings(runner):
    fig8 = build_fig8(runner, predictors=("Base", "Ideal"))
    value = average_savings(fig8, "Ideal")
    manual = (
        fig8["alpha"]["Ideal"].savings + fig8["mplayer"]["Ideal"].savings
    ) / 2
    assert value == pytest.approx(manual)


def test_fig10_checks_pass_on_toy_suite(runner):
    fig10 = build_fig10(runner)
    results = fig10_checks(fig10)
    # The reuse collapse must reproduce even on the toy suite.
    collapse = next(c for c in results if "collapses" in c.name)
    assert collapse.passed, collapse.detail


def test_fig8_checks_structure(runner):
    fig8 = build_fig8(runner)
    results = fig8_checks(fig8)
    assert len(results) == 4
    assert all(isinstance(c.detail, str) for c in results)


def test_renderers_produce_text(runner, disk_params):
    table1 = render_table1(build_table1(runner))
    assert "alpha" in table1
    table2 = render_table2(build_table2(disk_params))
    assert "Breakeven" in table2
    table3 = render_table3(
        build_table3(runner, variants=("PCAP",), applications=("alpha",))
    )
    assert "PCAP" in table3
    fig = render_accuracy_figure(
        build_fig7(runner, predictors=("TP",)), "Figure 7"
    )
    assert "AVERAGE" in fig
    energy = render_energy_figure(build_fig8(runner))
    assert "savings" in energy
    checks = render_checks(fig8_checks(build_fig8(runner)))
    assert "shape checks passed" in checks


def test_paper_data_self_consistency():
    assert set(PAPER_TABLE1) == set(PAPER_TABLE3)
    for entries in PAPER_TABLE3.values():
        assert entries["PCAPfh"] >= entries["PCAP"]


# ---------------------------------------------------------------------------
# Figures 7-10 and Table 3 run through the fused matrix
# ---------------------------------------------------------------------------


def test_table3_equals_run_global_table_sizes(small_suite):
    runner = ExperimentRunner(small_suite, SimulationConfig())
    rows = build_table3(runner)
    assert [row.application for row in rows] == runner.applications
    for row in rows:
        for variant in TABLE3_VARIANTS:
            expected = runner.run_global(row.application, variant)
            assert row.entries[variant] == expected.table_size, (
                row.application, variant,
            )


def test_untraced_global_builders_make_no_per_cell_replays(
    small_suite, monkeypatch
):
    """Figures 7-10 and Table 3 compare several predictors each, so they
    must run fused: a silent fallback to per-cell replays fails here."""
    calls = []
    replay = experiment_module.run_global_execution

    def counting(*args, **kwargs):
        calls.append(args)
        return replay(*args, **kwargs)

    monkeypatch.setattr(experiment_module, "run_global_execution", counting)
    runner = ExperimentRunner(small_suite, SimulationConfig())
    apps = ("mozilla", "nedit")
    for build in (build_fig7, build_fig8, build_fig9, build_fig10,
                  build_table3):
        build(runner, applications=apps)
    assert calls == []
    runner.run_global("nedit", "TP")  # the probe sees per-cell replays
    assert calls
