"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at full
scale (the complete six-application trace history) and prints the same
rows/series the paper reports, side by side with the paper's numbers.
Run with ``pytest benchmarks/ --benchmark-only -s`` to see the output.

Ablation benches use a reduced scale (0.5) so parameter sweeps stay
affordable; the headline table/figure benches run at scale 1.0.  Both
scales can be overridden from the environment (``REPRO_BENCH_SCALE``,
``REPRO_ABLATION_SCALE``) — the CI smoke job runs one figure bench at a
reduced scale to catch API drift quickly.

Suite-level runs fan out across worker processes by default: the
``jobs`` fixture reads ``REPRO_JOBS`` (0 = all cores) and falls back to
the machine's core count, and both runner fixtures are
:class:`~repro.sim.experiment.ExperimentRunner` instances, so the
figure/table benches and the ablation sweeps all use the parallel
execution layer.  Results are bit-identical to serial runs (the layer
merges per-cell results in a fixed order).
"""

from __future__ import annotations

import os

import pytest

from repro.config import JOBS_ENV_VAR, SimulationConfig
from repro.sim.experiment import ExperimentRunner
from repro.sim.parallel import resolve_jobs
from repro.workloads import build_suite


def _env_scale(name: str, fallback: float) -> float:
    try:
        return float(os.environ.get(name, ""))
    except ValueError:
        return fallback


#: Scale of the headline table/figure benches.
FULL_SCALE = _env_scale("REPRO_BENCH_SCALE", 1.0)
#: Scale of the ablation sweeps.
ABLATION_SCALE = _env_scale("REPRO_ABLATION_SCALE", 0.5)

#: Worker count of the parallel execution layer: ``REPRO_JOBS`` when
#: set, otherwise one worker per core.
JOBS = resolve_jobs(None if os.environ.get(JOBS_ENV_VAR) else 0)


@pytest.fixture(scope="session")
def jobs() -> int:
    return JOBS


@pytest.fixture(scope="session")
def config() -> SimulationConfig:
    return SimulationConfig()


@pytest.fixture(scope="session")
def full_runner(config) -> ExperimentRunner:
    """Full-scale suite + runner shared by the table/figure benches.

    The runner memoizes the cache-filtering pass; predictor state is per
    spec, so benches do not interfere with one another.
    """
    return ExperimentRunner(
        build_suite(scale=FULL_SCALE), config, jobs=JOBS
    )


@pytest.fixture(scope="session")
def ablation_runner(config) -> ExperimentRunner:
    return ExperimentRunner(
        build_suite(scale=ABLATION_SCALE), config, jobs=JOBS
    )


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Whole-suite simulations take seconds; statistical repetition would
    multiply runtimes for no insight, so every bench uses a single
    measured round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
