"""Simulator performance: disk accesses processed per second.

A genuine pytest-benchmark measurement (multiple rounds) of the two hot
loops — cache filtering and the global simulation — over a fixed mozilla
execution.
"""

import pytest

from repro.cache.filter import filter_execution
from repro.config import SimulationConfig
from repro.predictors.registry import make_spec
from repro.sim.engine import run_global_execution
from repro.workloads import build_application


@pytest.fixture(scope="module")
def execution():
    return build_application("mozilla", scale=1.0).executions[0]


@pytest.fixture(scope="module")
def config():
    return SimulationConfig()


@pytest.fixture(scope="module")
def filtered(execution, config):
    return filter_execution(execution, config.cache)


def test_throughput_cache_filter(benchmark, execution, config):
    result = benchmark(lambda: filter_execution(execution, config.cache))
    assert result.accesses
    events = execution.io_event_count
    print(f"\n  cache filter: {events} events/round")


def test_throughput_global_simulation(benchmark, execution, filtered, config):
    def run():
        spec = make_spec("PCAPfh", config)
        return run_global_execution(execution, filtered, spec, config)

    result = benchmark(run)
    assert result.disk_accesses == len(filtered.accesses)
    print(f"\n  global sim: {result.disk_accesses} disk accesses/round")
