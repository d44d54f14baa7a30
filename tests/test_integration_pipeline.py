"""Integration: workload generation → cache → engine → analysis, on the
down-scaled suite."""

import pytest

from repro.analysis.figures import build_fig8
from repro.analysis.tables import build_table1, build_table3
from repro.config import SimulationConfig
from repro.sim.experiment import ExperimentRunner


@pytest.fixture(scope="module")
def runner(small_suite):
    return ExperimentRunner(small_suite, SimulationConfig())


def test_every_predictor_runs_on_every_application(runner):
    from repro.predictors.registry import KNOWN_PREDICTORS

    application = "nedit"  # smallest
    for name in KNOWN_PREDICTORS:
        result = runner.run_global(application, name)
        assert result.energy > 0
        assert result.stats.gaps > 0


def test_table1_magnitudes_scale_with_suite(runner):
    rows = {row.application: row for row in build_table1(runner)}
    # All six applications produce idle periods and disk traffic.
    for name, row in rows.items():
        assert row.global_idle_periods > 0, name
        assert row.local_idle_periods >= row.global_idle_periods, name
        assert row.disk_accesses > 0, name
        assert row.total_ios > row.disk_accesses, name  # cache absorbs I/O


def test_energy_sums_are_consistent(runner):
    predictors = ("Base", "TP")
    matrix = runner.run_matrix(predictors, applications=("xemacs",))
    fig8 = build_fig8(matrix, predictors=predictors)
    base = fig8["xemacs"]["Base"]
    tp = fig8["xemacs"]["TP"]
    assert base.total == pytest.approx(1.0)
    # TP's components plus its savings account for the base energy.
    assert tp.total + tp.savings == pytest.approx(1.0, abs=1e-9)


def test_table3_variant_ordering(runner):
    variants = ("PCAP", "PCAPfh")
    matrix = runner.run_matrix(variants, applications=("mozilla", "nedit"))
    rows = build_table3(matrix, variants=variants)
    for row in rows:
        # Extended keys can only fragment (grow) the table.
        assert row.entries["PCAPfh"] >= row.entries["PCAP"]


def test_oracle_dominates_every_online_predictor(runner):
    for application in ("mozilla", "nedit", "mplayer"):
        ideal = runner.run_global(application, "Ideal").energy
        for name in ("TP", "LT", "PCAP", "PCAPfh"):
            online = runner.run_global(application, name).energy
            assert ideal <= online + 1e-6, (application, name)


def test_base_is_near_worst_policy(runner):
    """Managed policies beat (or at worst marginally exceed) Base.

    A mispredicted shutdown consumes more energy than it saves (§2), so
    on this sparse down-scaled suite a timeout predictor can land a few
    points above Base; at full scale every policy wins clearly (see the
    Figure 8 benchmark)."""
    for application in ("writer", "impress"):
        base = runner.run_global(application, "Base").energy
        for name in ("Ideal", "TP", "PCAP"):
            assert runner.run_global(application, name).energy <= base * 1.05


def test_global_opportunities_do_not_depend_on_predictor(runner):
    counts = {
        name: runner.run_global("xemacs", name).stats.opportunities
        for name in ("Base", "TP", "LT", "PCAP")
    }
    assert len(set(counts.values())) == 1, counts


def test_mplayer_trailing_drain_is_learned(runner):
    """The buffer-drain idle period at movie end must eventually be
    predicted by the primary PCAP (the trailing-gap training path)."""
    result = runner.run_global("mplayer", "PCAP")
    assert result.stats.hits_primary > 0
