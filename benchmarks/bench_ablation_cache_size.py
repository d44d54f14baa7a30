"""Ablation — file-cache size (§6's 256 KB cache).

The paper filters traces through a 256 KB Linux-style cache.  Sweeps the
capacity: a bigger cache absorbs more re-reads, thinning disk traffic
and (slightly) lengthening idle periods.

Runs through the parallel sweep layer; because the swept predictor *is*
``Base``, each (size × app) cell doubles as its own baseline (no
redundant baseline simulations).
"""

from conftest import ABLATION_SCALE, JOBS, run_once

from repro.cache.page_cache import CacheConfig
from repro.config import SimulationConfig
from repro.sim.experiment import ExperimentRunner
from repro.sim.sweep import sweep
from repro.workloads import build_suite

SIZES_KB = (64, 256, 1024, 4096)


def test_ablation_cache_size(benchmark):
    runner = ExperimentRunner(
        build_suite(scale=ABLATION_SCALE), jobs=JOBS
    )

    def run():
        points = sweep(
            runner,
            SIZES_KB,
            make_config=lambda size_kb: SimulationConfig(
                cache=CacheConfig(capacity_bytes=size_kb * 1024)
            ),
            predictor="Base",
            jobs=JOBS,
        )
        return {point.value: point for point in points}

    results = run_once(benchmark, run)
    print()
    print(f"Ablation: file-cache capacity (suite-wide, scale 0.5, "
          f"jobs={JOBS})")
    for size_kb, point in results.items():
        print(f"  cache={size_kb:5d}KB disk accesses={point.disk_accesses:7d} "
              f"idle periods={point.opportunities:4d}")

    sizes = sorted(results)
    traffic = [results[s].disk_accesses for s in sizes]
    # Disk traffic is monotonically non-increasing in cache size.
    assert all(a >= b for a, b in zip(traffic, traffic[1:]))
    # Idle-period structure stays in the same ballpark (the think times,
    # not the cache, define the opportunities).
    opportunities = [results[s].opportunities for s in sizes]
    assert max(opportunities) <= 1.3 * min(opportunities)
