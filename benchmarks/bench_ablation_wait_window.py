"""Ablation — the sliding wait-window (§4.1.1).

Sweeps the wait-window length: without a window PCAP fires on every
matched signature the moment the burst pauses (subpath aliasing misses
explode); beyond ~1-2 s the extra waiting costs idle energy without
buying accuracy — the paper's rationale for 1 s.
"""

from conftest import run_once

from repro.analysis.figures import average_bars, build_fig7
from repro.config import SimulationConfig

WINDOWS = (0.2, 0.5, 1.0, 2.0, 4.0)


def test_ablation_wait_window(benchmark, ablation_runner):
    def sweep():
        results = {}
        for window in WINDOWS:
            runner = ablation_runner.with_config(
                SimulationConfig(wait_window=window)
            )
            figure = build_fig7(
                runner.run_matrix(("PCAP",)), predictors=("PCAP",)
            )
            results[window] = average_bars(figure, "PCAP")
        return results

    results = run_once(benchmark, sweep)
    print()
    print("Ablation: sliding wait-window (PCAP, global, scale 0.5)")
    for window, bar in results.items():
        print(f"  window={window:4.1f}s hit={bar.hit:6.1%} "
              f"miss={bar.miss:6.1%} notpred={bar.not_predicted:6.1%}")

    # Tiny windows mispredict more than the paper's 1 s window.
    assert results[0.2].miss >= results[1.0].miss - 0.01
    # Very large windows cannot increase mispredictions.
    assert results[4.0].miss <= results[0.2].miss + 0.01
