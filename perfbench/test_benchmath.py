"""Unit tests of the benchmark's metric math and of its declared metrics.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

import benchmath
import probes
from common import Tally
import run

ROOT = Path(__file__).resolve().parent.parent


# -- percentiles and their sample counts ----------------------------------

def test_percentile_reports_value_and_sample_count():
    values = list(range(1, 101))  # 1..100
    assert benchmath.percentile(values, 0.9) == (90, 100)
    assert benchmath.percentile(values, 0.5) == (50, 100)


def test_percentile_is_withheld_with_fewer_than_ten_samples_beyond():
    # p90 of 99 samples is the 90th; only 9 lie beyond it.
    assert benchmath.percentile(list(range(99)), 0.9) is None
    # p50 needs 20 samples: the 10th of 20 has 10 beyond it.
    assert benchmath.percentile(list(range(20)), 0.5) == (9, 20)
    assert benchmath.percentile(list(range(19)), 0.5) is None


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0] * 40
    assert benchmath.percentile(values, 0.5) == (4.0, 120)


def test_percentile_rejects_out_of_range_quantile():
    with pytest.raises(ValueError):
        benchmath.percentile([1.0] * 50, 1.0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.1, 9.9, 10.4]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = benchmath.quartile_spread(values)
    assert (spread["q1"], spread["median"], spread["q3"]) == (q1, q2, q3)
    assert spread["spread"] == pytest.approx((q3 - q1) / q2)


# -- calibration against the reference work -------------------------------

def test_calibration_cancels_a_host_slowdown_but_not_a_program_one():
    reference = benchmath.REFERENCE_S
    wall = benchmath.calibrated(2.0, reference)
    assert wall == pytest.approx(2.0)
    # The host slows the command and the reference work alike.
    assert benchmath.calibrated(2.0 * 1.6, reference * 1.6) == \
        pytest.approx(wall)
    # The program slows; the reference work does not.
    assert benchmath.calibrated(2.0 * 1.1, reference) == \
        pytest.approx(wall * 1.1)
    with pytest.raises(ValueError):
        benchmath.calibrated(2.0, 0.0)


# -- self time from nested spans ------------------------------------------

def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        ["root", 0.0, 10.0, None],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 7.0, 0],
    ]
    assert benchmath.self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    assert benchmath.self_time_by_name(spans) == {
        "root": 5.0, "child": 4.0, "grandchild": 1.0}


def test_self_times_add_up_to_the_root_duration():
    spans = [
        ["root", 0.0, 8.0, None],
        ["a", 0.5, 3.0, 0],
        ["b", 1.0, 2.0, 1],
        ["a", 4.0, 6.5, 0],
    ]
    assert sum(benchmath.self_times(spans)) == pytest.approx(8.0)


def test_recorder_nests_spans_per_thread():
    recorder = probes.SpanRecorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    assert [span[3] for span in recorder.spans] == [None, outer]
    assert all(span[2] >= span[1] for span in recorder.spans)


def test_patched_call_records_span_and_counts():
    class Layer:
        @staticmethod
        def work(n):
            return list(range(n))

    recorder = probes.SpanRecorder()
    probes.patch(Layer, "work", recorder, "layer",
                 lambda rec, args, kwargs, result: rec.count("items",
                                                            len(result)))
    assert Layer.work(3) == [0, 1, 2]
    assert [span[0] for span in recorder.spans] == ["layer"]
    assert recorder.counts == {"items": 3}


def test_layer_metrics_add_up_to_the_traced_wall():
    dump = {
        "spans": [
            ["cli.import", 0.1, 0.4, None],
            ["analysis", 0.5, 2.0, None],
            ["sim.experiment.cell", 0.6, 1.8, 1],
            ["cache.filter", 0.7, 1.0, 2],
        ],
        "counts": {"cache.filter_calls": 2, "sim.experiment.cells": 1},
        "distinct": {"cache.filter": 1, "sim.experiment.cell": 1},
    }
    metrics = probes.batch_layer_metrics(dump, wall=2.5)
    times = [v for k, v in metrics.items()
             if k.endswith("_s") and not k.startswith("trace.")]
    assert sum(times) + metrics["trace.unattributed_s"] == pytest.approx(2.5)
    assert metrics["cache.filter_repeat_ratio"] == 2.0
    assert metrics["sim.resilience.cells"] == 0


# -- failures against attempts --------------------------------------------

def test_failure_share():
    assert benchmath.failure_share(200, 0) == 0.0
    assert benchmath.failure_share(8, 2) == 0.25
    with pytest.raises(ValueError):
        benchmath.failure_share(0, 0)
    with pytest.raises(ValueError):
        benchmath.failure_share(3, 4)


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert tally.check(True, "first")
    assert not tally.check(False, "second")
    tally.record(104, 104, "serve cycle not bit-identical")
    assert (tally.attempted, tally.failed) == (106, 105)
    assert benchmath.failure_share(tally.attempted, tally.failed) == \
        pytest.approx(105 / 106)


# -- the declared metrics -------------------------------------------------

def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_per_layer_metrics_are_exactly_those_measured():
    """Every declared per-layer metric is measured on some workload, and
    every measured one is declared."""
    layer_times = set(probes.LAYER_TIMES.values())
    batch_setup = {name for name in layer_times
                   if not name.startswith(("serve.", "traces.store.encode",
                                           "traces.store.decode"))}
    measured = layer_times | set(probes.BATCH_COUNTS)
    measured |= {f"setup.{name}" for name in batch_setup}
    measured |= {
        "trace.wall_s", "trace.unattributed_s", "trace.overhead_s",
        "setup.trace.wall_s", "setup.trace.unattributed_s",
        "cache.filter_repeat_ratio", "sim.experiment.cell_repeat_ratio",
        "sim.artifact_cache.hit_ratio", "serve.transport_s",
        "serve.state.compactions", "serve.daemon.incidents",
        "serve.daemon.decisions", "serve.daemon.shard_skew",
    }
    assert {m["name"] for m in _spec()["per_layer"]} == measured


def test_declared_units_follow_the_names():
    for metric in _spec()["end_to_end"] + _spec()["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        if name.endswith(("_ratio", "_skew")):
            assert unit == "ratio", name
        elif name.endswith("_s"):
            assert unit == "s", name
        elif name.endswith("_mb"):
            assert unit == "MB", name
        else:
            assert unit == "count", name


def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_workload_reports_every_declared_metric():
    measured = {"wall_s": 6.1, "setup_s": 0.3, "peak_rss_mb": 108.5}
    reported = run.select(measured, trace=False, failed=False)
    assert list(reported) == [m["name"] for m in _spec()["end_to_end"]]
    assert reported["wall_s"] == {"value": 6.1, "unit": "s"}
    # A layer the workload never enters reads 0.
    layers = run.select({"cache.filter_s": 0.6}, trace=True, failed=False)
    assert len(layers) == len(_spec()["per_layer"])
    assert layers["cache.filter_s"]["value"] == 0.6
    assert layers["serve.state.compact_s"] == {"value": 0, "unit": "s"}


def test_a_missing_or_undeclared_metric_stops_the_run():
    with pytest.raises(SystemExit):
        run.select({"wall_s": 6.1, "setup_s": 0.3}, trace=False,
                   failed=False)
    with pytest.raises(SystemExit):
        run.select({"cache.filter_sec": 0.6}, trace=True, failed=False)
    # With a failed output check the run's numbers do not count anyway.
    assert "wall_s" not in run.select({"setup_s": 0.3}, trace=False,
                                      failed=True)
