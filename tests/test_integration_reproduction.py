"""Integration: the paper's qualitative results (shape checks) hold on a
moderately-scaled suite.

Scale 0.35 keeps several executions per application (enough for table
reuse to matter) while staying fast; the full-scale numbers are produced
by the benchmarks and recorded in EXPERIMENTS.md.
"""

import pytest

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
    build_fig6,
    build_fig7,
    build_fig8,
    build_fig9,
    build_fig10,
)
from repro.config import SimulationConfig
from repro.sim.experiment import ExperimentRunner
from repro.workloads import build_suite


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(build_suite(scale=0.35), SimulationConfig())


@pytest.fixture(scope="module")
def local(runner):
    return runner.run_matrix(FIG6_PREDICTORS, mode="local")


@pytest.fixture(scope="module")
def matrix(runner):
    return runner.run_matrix(GLOBAL_PREDICTORS)


def _assert_checks(checks):
    failed = [c for c in checks if not c.passed]
    assert not failed, "\n".join(f"{c.name}: {c.detail}" for c in failed)


def test_fig6_local_shape(local):
    _assert_checks(fig6_checks(build_fig6(local)))


def test_fig7_global_shape(matrix):
    _assert_checks(fig7_checks(build_fig7(matrix)))


def test_fig8_energy_shape(matrix):
    checks = fig8_checks(build_fig8(matrix))
    # The "mplayer is the limited-idle outlier" property depends on full
    # movie lengths: at this reduced scale mplayer plays only ~2 chapters,
    # so its idle share is not yet the minimum.  The full-scale benchmark
    # (bench_fig8_energy) exercises that check.
    checks = [
        c for c in checks if "limited-idle outlier" not in c.name
    ]
    _assert_checks(checks)


def test_fig9_optimization_shape(matrix):
    _assert_checks(fig9_checks(build_fig9(matrix)))


def test_fig10_reuse_shape(matrix):
    _assert_checks(fig10_checks(build_fig10(matrix)))
