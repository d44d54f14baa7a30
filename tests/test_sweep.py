"""Parameter sweep utilities."""

import pytest

from repro.config import SimulationConfig
from repro.predictors.registry import tp_spec
from repro.sim.experiment import ExperimentRunner
from repro.sim.sweep import SweepPoint, render_sweep, sweep
from repro.traces.trace import ApplicationTrace
from tests.helpers import (
    classic_matrix,
    classic_sweep,
    single_process_execution,
)


@pytest.fixture(scope="module")
def runner():
    executions = []
    for index in range(3):
        points = []
        t = 0.0
        for rep in range(4):
            points.append((t, 0x1000))
            t += 40.0
        executions.append(
            single_process_execution(
                points, application="app", execution_index=index, end_time=t
            )
        )
    return ExperimentRunner(
        {"app": ApplicationTrace("app", executions)}, SimulationConfig()
    )


def test_sweep_over_configs(runner):
    points = sweep(
        runner,
        [1.0, 20.0],
        make_config=lambda t: SimulationConfig(timeout=t),
        predictor="TP",
    )
    assert len(points) == 2
    # A 20 s timer saves less than a 1 s timer on 40 s gaps.
    assert points[0].savings > points[1].savings


def test_sweep_over_specs(runner):
    points = sweep(
        runner,
        [2.0, 30.0],
        make_spec=lambda t, cfg: tp_spec(cfg, timeout=t),
    )
    assert points[0].shutdowns >= points[1].shutdowns


def test_sweep_rejects_both_factories(runner):
    with pytest.raises(ValueError):
        sweep(
            runner,
            [1],
            make_config=lambda v: SimulationConfig(),
            make_spec=lambda v, c: tp_spec(c),
        )


def test_sweep_point_fields(runner):
    (point,) = sweep(runner, [5.0],
                     make_config=lambda t: SimulationConfig(timeout=t),
                     predictor="TP")
    assert isinstance(point, SweepPoint)
    assert 0.0 <= point.hit_fraction <= 1.2
    assert point.energy > 0
    assert point.delayed_requests >= point.irritating_delays >= 0


def test_sweep_shares_baseline_across_predictor_knob_points(runner):
    # The Base system never reads wait_window/timeout, so a sweep over a
    # predictor knob needs exactly one baseline cell per application —
    # not one per (point, application).
    labels = []
    points = sweep(
        runner,
        [1.0, 5.0, 20.0],
        make_config=lambda t: SimulationConfig(timeout=t),
        predictor="TP",
        progress=lambda event: labels.append(event.cell.predictor),
    )
    assert len(points) == 3
    assert labels.count("Base") == 1
    assert len(labels) == 4  # 3 run cells + 1 shared baseline cell
    # Every point's savings is computed against the same baseline.
    assert all(point.savings <= points[0].savings for point in points)


def test_sweep_recomputes_baseline_when_relevant_config_changes(runner):
    # service_time feeds the baseline energy, so varying it must produce
    # one fresh baseline per point.
    labels = []
    sweep(
        runner,
        [0.010, 0.020],
        make_config=lambda s: SimulationConfig(service_time=s),
        predictor="TP",
        progress=lambda event: labels.append(event.cell.predictor),
    )
    assert labels.count("Base") == 2


def test_render_sweep(runner):
    points = sweep(runner, [5.0],
                   make_config=lambda t: SimulationConfig(timeout=t),
                   predictor="TP")
    text = render_sweep(points, "TP timeout sweep")
    assert "TP timeout sweep" in text
    assert "5.0" in text


# ---------------------------------------------------------------------------
# Duplicate / shadowed lane names (fused vs classic parity)
# ---------------------------------------------------------------------------
#
# Lanes and cells are positional, so duplicate swept values (and
# duplicate predictor names in a matrix) must fold on the fused path
# exactly as one run_global call per cell does — and the variant-set
# fingerprint must tell apart orderings and duplicates, because a fused
# artifact-cache entry covers the whole positional lane list.


def test_sweep_duplicate_values_fused_matches_classic(runner):
    make = lambda t, cfg: tp_spec(cfg, timeout=t)  # noqa: E731
    values = [2.0, 30.0, 2.0]  # the duplicate is a real, separate point
    fused = sweep(runner, values, make_spec=make)
    assert fused == classic_sweep(runner, values, make)
    assert len(fused) == 3
    assert fused[0] == fused[2]  # same knob value, same point


def test_matrix_duplicate_predictor_names_fused_matches_classic():
    from repro.workloads import build_suite

    suite = build_suite(scale=0.2, applications=("mozilla",))
    runner = ExperimentRunner(suite, SimulationConfig())
    names = ["TP", "Base", "TP"]  # shadowed: the dict row keeps one TP
    fused = runner.run_matrix(names)
    assert fused == classic_matrix(runner, names)
    assert set(fused["mozilla"]) == {"TP", "Base"}  # last-wins collapse


def test_variant_set_fingerprint_is_positional():
    from repro.sim.artifact_cache import variant_set_fingerprint

    config = SimulationConfig()
    ab = variant_set_fingerprint(("TP", "Base"), config)
    ba = variant_set_fingerprint(("Base", "TP"), config)
    dup = variant_set_fingerprint(("TP", "Base", "TP"), config)
    assert len({ab, ba, dup}) == 3  # order and multiplicity both count
