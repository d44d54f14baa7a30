"""Performance measurement and the regression gate (``repro bench``).

The repository's throughput promises — the columnar hot path of the
simulation engine, the page-cache filter, and the cold→warm speedup of
the artifact cache — are protected by a machine-readable benchmark
report, ``BENCH_engine.json``:

* :func:`run_benchmarks` measures the hot paths and returns a
  :class:`PerfReport`;
* :func:`compare_reports` checks a fresh report against a committed
  baseline with a relative tolerance band and reports regressions;
* the ``repro bench`` CLI subcommand wires both together and exits
  non-zero on a regression, which is what CI's perf-smoke job runs.

Gating uses each benchmark's **best** round (highest observed
throughput): the minimum time of N rounds is far less sensitive to
scheduler noise than the mean, which matters on shared CI runners.  The
mean is still reported for humans.  Baselines are only comparable
between same-``mode`` runs on comparable hardware; the committed
baseline tracks the quick mode that CI executes.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: Report schema version (bump on layout changes).
REPORT_SCHEMA = 1

#: Default relative throughput-drop tolerance of the regression gate.
DEFAULT_TOLERANCE = 0.30

#: Workload scale per mode: quick keeps CI runs in seconds; full matches
#: the paper-scale workload of benchmarks/bench_engine_throughput.py.
QUICK_SCALE = 0.4
FULL_SCALE = 1.0

#: Minimum fused-over-per-cell sweep speedup the gate demands.  A
#: within-report ratio of best rounds, so it is machine-insensitive:
#: both paths run on the same box in the same process.  The committed
#: baseline additionally holds the fused path's absolute throughput
#: under the regular tolerance band.
FUSED_SPEEDUP_FLOOR = 3.2

#: Minimum batched-fleet-over-per-device-loop speedup the gate demands
#: at :data:`FLEET_DEVICES` devices.  Like the fused floor it is a
#: within-report ratio of best rounds; the per-device loop is measured
#: on a :data:`FLEET_LOOP_SAMPLE`-device sample and projected linearly
#: (exact, because the loop is independent identical runs — device
#: count is a pure multiplier on its work).
FLEET_SPEEDUP_FLOOR = 5.0

#: Fleet size of the ``fleet_sim`` benchmark.
FLEET_DEVICES = 1000

#: Devices actually timed in the per-device reference loop; timing all
#: :data:`FLEET_DEVICES` would spend minutes proving a linear scaling
#: the loop has by construction.
FLEET_LOOP_SAMPLE = 8


@dataclass(slots=True)
class BenchResult:
    """One benchmark's measurement (seconds per round, rounds)."""

    name: str
    mean_s: float
    best_s: float
    rounds: int
    #: Work items processed per round (accesses, events, ...), for
    #: context in reports; 0 when not meaningful.
    items: int = 0

    @property
    def ops(self) -> float:
        """Mean rounds per second."""
        return 1.0 / self.mean_s if self.mean_s > 0 else 0.0

    @property
    def best_ops(self) -> float:
        """Best-round throughput — the gated metric."""
        return 1.0 / self.best_s if self.best_s > 0 else 0.0


@dataclass(slots=True)
class PerfReport:
    """A full benchmark run, serializable to ``BENCH_engine.json``."""

    mode: str
    scale: float
    results: dict[str, BenchResult] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "schema": REPORT_SCHEMA,
            "mode": self.mode,
            "scale": self.scale,
            "benchmarks": {
                name: {
                    "mean_s": result.mean_s,
                    "best_s": result.best_s,
                    "rounds": result.rounds,
                    "items": result.items,
                }
                for name, result in self.results.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "PerfReport":
        payload = json.loads(text)
        report = PerfReport(
            mode=payload["mode"], scale=float(payload["scale"])
        )
        for name, entry in payload["benchmarks"].items():
            report.results[name] = BenchResult(
                name=name,
                mean_s=float(entry["mean_s"]),
                best_s=float(entry["best_s"]),
                rounds=int(entry["rounds"]),
                items=int(entry.get("items", 0)),
            )
        return report


@dataclass(frozen=True, slots=True)
class Regression:
    """One gated metric that fell outside the tolerance band."""

    name: str
    baseline_ops: float
    current_ops: float

    @property
    def drop(self) -> float:
        if self.baseline_ops <= 0:
            return 0.0
        return 1.0 - self.current_ops / self.baseline_ops


def _measure(
    fn: Callable[[], object], *, rounds: int, warmup: int = 2
) -> tuple[float, float]:
    """(mean, best) seconds per round of ``fn`` over ``rounds`` rounds."""
    for _ in range(warmup):
        fn()
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return sum(timings) / len(timings), min(timings)


#: Every entry :func:`run_benchmarks` can produce, in run order
#: (``repro bench --only`` validates against this list).
BENCHMARK_NAMES = (
    "cache_filter",
    "global_simulation",
    "learned_predictors",
    "tape_build",
    "sweep_per_cell",
    "fused_sweep",
    "fleet_sim",
    "fleet_per_device_loop",
    "artifact_cache_warm",
    "artifact_cache_cold",
)


def run_benchmarks(
    *,
    quick: bool = False,
    cache_dir: Optional[str] = None,
    only: Optional[list[str]] = None,
) -> PerfReport:
    """Measure the hot paths and return a report.

    ``quick`` shrinks the workload (CI's perf-smoke mode).  The
    artifact-cache benchmark uses ``cache_dir`` as scratch space
    (a private temporary directory by default, removed afterwards).
    ``only`` restricts the run to the named entries (any subset of
    :data:`BENCHMARK_NAMES`; unknown names raise ``ValueError``) — the
    report then contains just those entries, and
    :func:`compare_reports` skips the absent ones.
    """
    from repro.cache.filter import filter_execution
    from repro.config import SimulationConfig
    from repro.predictors.registry import make_spec
    from repro.sim.engine import build_replay_tape, run_global_execution
    from repro.workloads import build_application

    if only is not None:
        unknown = sorted(set(only) - set(BENCHMARK_NAMES))
        if unknown:
            raise ValueError(
                f"unknown benchmark(s): {', '.join(unknown)}; "
                f"known: {', '.join(BENCHMARK_NAMES)}"
            )
    wanted = set(BENCHMARK_NAMES if only is None else only)

    def want(name: str) -> bool:
        return name in wanted

    scale = QUICK_SCALE if quick else FULL_SCALE
    rounds = 20 if quick else 50
    config = SimulationConfig()
    execution = build_application("mozilla", scale=scale).executions[0]
    filtered = filter_execution(execution, config.cache)

    report = PerfReport(mode="quick" if quick else "full", scale=scale)

    if want("cache_filter"):

        def bench_filter() -> None:
            filter_execution(execution, config.cache)

        mean_s, best_s = _measure(bench_filter, rounds=rounds)
        report.results["cache_filter"] = BenchResult(
            name="cache_filter",
            mean_s=mean_s,
            best_s=best_s,
            rounds=rounds,
            items=execution.io_event_count,
        )

    if want("global_simulation"):

        def bench_global() -> None:
            spec = make_spec("PCAPfh", config)
            run_global_execution(execution, filtered, spec, config)

        mean_s, best_s = _measure(bench_global, rounds=rounds)
        report.results["global_simulation"] = BenchResult(
            name="global_simulation",
            mean_s=mean_s,
            best_s=best_s,
            rounds=rounds,
            items=len(filtered.accesses),
        )

    if want("learned_predictors"):
        # The learned-predictor family (Q-DPM, learning-augmented ski
        # rental, PI feedback controller) over the same execution: all
        # three are generic stateful lanes, so this bounds the per-access
        # callback cost the fused kernel pays for them.

        def bench_learned() -> None:
            for name in ("QDPM", "SKI", "PI"):
                spec = make_spec(name, config)
                run_global_execution(execution, filtered, spec, config)

        mean_s, best_s = _measure(bench_learned, rounds=rounds)
        report.results["learned_predictors"] = BenchResult(
            name="learned_predictors",
            mean_s=mean_s,
            best_s=best_s,
            rounds=rounds,
            items=3 * len(filtered.accesses),
        )

    if want("tape_build"):
        # One replay-tape construction: the per-execution cost every
        # fused pass pays once before its lanes replay the tape.

        def bench_tape_build() -> None:
            build_replay_tape(execution, filtered, config)

        mean_s, best_s = _measure(bench_tape_build, rounds=rounds)
        report.results["tape_build"] = BenchResult(
            name="tape_build",
            mean_s=mean_s,
            best_s=best_s,
            rounds=rounds,
            items=len(filtered.accesses),
        )

    sweep_rounds = max(5, rounds // 4)
    needs_runner = wanted & {
        "sweep_per_cell", "fused_sweep", "fleet_sim",
        "fleet_per_device_loop",
    }
    if needs_runner:
        # The fused-sweep pair: the paper's predictor comparison (a TP
        # timeout sweep plus the PCAP family and the Base baseline) over
        # the mozilla trace history, per-cell vs one fused streaming
        # pass.  Both use the same prewarmed runner, so the ratio
        # isolates simulation work; the equivalence of their outputs is
        # CI's fused-equivalence step, not this benchmark's concern.
        from repro.sim.experiment import ExperimentRunner
        from repro.sim.fused import run_fused_application
        from repro.workloads import build_suite

        suite = build_suite(scale=scale, applications=("mozilla",))
        runner = ExperimentRunner(suite, config)
        lanes = 0
        for _execution, s_filtered in runner.iter_filtered("mozilla"):
            lanes += len(s_filtered.accesses)
        variant_count = len(sweep_variant_specs(config))

    if want("sweep_per_cell"):

        def bench_sweep_per_cell() -> None:
            for spec in sweep_variant_specs(config):
                runner.run_global("mozilla", spec)

        mean_s, best_s = _measure(bench_sweep_per_cell, rounds=sweep_rounds)
        report.results["sweep_per_cell"] = BenchResult(
            name="sweep_per_cell",
            mean_s=mean_s,
            best_s=best_s,
            rounds=sweep_rounds,
            items=lanes * variant_count,
        )

    if want("fused_sweep"):

        def bench_fused_sweep() -> None:
            run_fused_application(
                runner, "mozilla", sweep_variant_specs(config)
            )

        mean_s, best_s = _measure(bench_fused_sweep, rounds=sweep_rounds)
        report.results["fused_sweep"] = BenchResult(
            name="fused_sweep",
            mean_s=mean_s,
            best_s=best_s,
            rounds=sweep_rounds,
            items=lanes * variant_count,
        )

    # The fleet pair: a 1000-device single-application fleet through the
    # device-batched engine (one fused replay scattered across the
    # device rows) vs the naive per-device Python loop (one run_global
    # per device, timed on a small sample and projected linearly by
    # fleet_speedup()).  Same prewarmed runner for both, so the ratio
    # isolates the batching; the fleet's bit-identity to the loop is
    # CI's fleet-smoke step, not this benchmark's concern.
    if wanted & {"fleet_sim", "fleet_per_device_loop"}:
        from repro.sim.fleet import replicate_devices, run_fleet

        fleet_devices = replicate_devices(("mozilla",), FLEET_DEVICES)
        sample_devices = fleet_devices[:FLEET_LOOP_SAMPLE]

    if want("fleet_sim"):

        def bench_fleet() -> None:
            run_fleet(runner, fleet_devices, ("PCAP",))

        mean_s, best_s = _measure(bench_fleet, rounds=sweep_rounds)
        report.results["fleet_sim"] = BenchResult(
            name="fleet_sim",
            mean_s=mean_s,
            best_s=best_s,
            rounds=sweep_rounds,
            items=FLEET_DEVICES,
        )

    if want("fleet_per_device_loop"):

        def bench_fleet_loop() -> None:
            for device in sample_devices:
                runner.run_global(device.application, "PCAP")

        mean_s, best_s = _measure(bench_fleet_loop, rounds=sweep_rounds)
        report.results["fleet_per_device_loop"] = BenchResult(
            name="fleet_per_device_loop",
            mean_s=mean_s,
            best_s=best_s,
            rounds=sweep_rounds,
            items=FLEET_LOOP_SAMPLE,
        )

    if wanted & {"artifact_cache_warm", "artifact_cache_cold"}:
        cold_s, warm_s = _artifact_cache_times(scale, cache_dir)
        if want("artifact_cache_warm"):
            report.results["artifact_cache_warm"] = BenchResult(
                name="artifact_cache_warm",
                mean_s=warm_s,
                best_s=warm_s,
                rounds=1,
                items=0,
            )
        # The cold/warm ratio is informational (rounds=1 each, so
        # noisy); the gate watches the warm pipeline's absolute
        # throughput above.
        if want("artifact_cache_cold"):
            report.results["artifact_cache_cold"] = BenchResult(
                name="artifact_cache_cold",
                mean_s=cold_s,
                best_s=cold_s,
                rounds=1,
                items=0,
            )
    return report


def _artifact_cache_times(
    scale: float, cache_dir: Optional[str]
) -> tuple[float, float]:
    """(cold, warm) wall-clock of the cached suite pipeline at ``scale``.

    The pipeline is trace generation plus page-cache filtering of every
    suite application — the two stages the artifact cache persists.
    """
    import repro.workloads.suite as suite_module
    from repro.config import SimulationConfig
    from repro.sim.artifact_cache import ArtifactCache
    from repro.sim.experiment import ExperimentRunner
    from repro.workloads import build_suite

    scratch = cache_dir or tempfile.mkdtemp(prefix="repro-bench-cache-")

    def pipeline() -> float:
        suite_module._cached_suite.cache_clear()
        cache = ArtifactCache(scratch)
        start = time.perf_counter()
        suite = build_suite(scale=scale, cache=cache)
        runner = ExperimentRunner(
            suite, SimulationConfig(), artifact_cache=cache
        )
        for name in suite:
            runner.filtered(name)
        return time.perf_counter() - start

    try:
        cold = pipeline()
        warm = pipeline()
    finally:
        if cache_dir is None:
            shutil.rmtree(scratch, ignore_errors=True)
        suite_module._cached_suite.cache_clear()
    return cold, warm


def sweep_variant_specs(config) -> list:
    """The fused-sweep benchmark's variant set (fresh, stateful specs).

    The full-suite comparison a sweep actually runs: the paper's TP
    timeout ladder, the breakeven timeout, LT, the four main PCAP
    variants, and the Base baseline — 13 lanes.
    """
    from repro.predictors.registry import make_spec, tp_spec

    specs = [
        tp_spec(config, timeout=value, name=f"TP({value:g}s)")
        for value in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    ]
    specs.append(make_spec("TP-BE", config))
    for name in ("LT", "PCAP", "PCAPh", "PCAPf", "PCAPfh", "Base"):
        specs.append(make_spec(name, config))
    return specs


def fused_speedup(report: PerfReport) -> Optional[float]:
    """Best-round fused-over-per-cell sweep speedup, or ``None`` when the
    report lacks either entry (e.g. an old baseline)."""
    per_cell = report.results.get("sweep_per_cell")
    fused = report.results.get("fused_sweep")
    if per_cell is None or fused is None or fused.best_s <= 0:
        return None
    return per_cell.best_s / fused.best_s


def fleet_speedup(report: PerfReport) -> Optional[float]:
    """Best-round batched-fleet speedup over the per-device loop, or
    ``None`` when the report lacks either entry (e.g. an old baseline).

    The loop entry covers ``items`` sampled devices; its cost at the
    fleet entry's device count is the linear projection
    ``best_s / items × fleet_items`` (exact — the loop is independent
    identical runs).
    """
    fleet = report.results.get("fleet_sim")
    loop = report.results.get("fleet_per_device_loop")
    if (
        fleet is None
        or loop is None
        or fleet.best_s <= 0
        or loop.items <= 0
    ):
        return None
    projected_loop_s = loop.best_s / loop.items * fleet.items
    return projected_loop_s / fleet.best_s


#: Benchmarks whose throughput the regression gate enforces.  The
#: artifact-cache timings are single-shot and I/O-bound — reported for
#: humans, not gated.
GATED_BENCHMARKS = (
    "cache_filter",
    "global_simulation",
    "learned_predictors",
    "tape_build",
    "sweep_per_cell",
    "fused_sweep",
    "fleet_sim",
)


def compare_reports(
    current: PerfReport,
    baseline: PerfReport,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[Regression]:
    """Gated benchmarks whose throughput dropped more than ``tolerance``.

    Returns an empty list when everything is within the band.  Raises
    ``ValueError`` when the reports are not comparable (different mode
    or scale — a baseline from another mode says nothing).

    Beyond the per-benchmark band, the fused sweep kernel's speedup
    claim is gated directly: the *current* report's fused-over-per-cell
    best-round ratio must stay at or above
    :data:`FUSED_SPEEDUP_FLOOR` (a within-report ratio, immune to the
    runner being faster or slower than the baseline machine).  The
    fleet engine's batching claim is gated the same way: the
    fleet-over-per-device-loop ratio (:func:`fleet_speedup`) must stay
    at or above :data:`FLEET_SPEEDUP_FLOOR`.
    """
    if current.mode != baseline.mode or current.scale != baseline.scale:
        raise ValueError(
            f"incomparable reports: current is {current.mode}@"
            f"{current.scale}, baseline is {baseline.mode}@{baseline.scale}"
        )
    regressions: list[Regression] = []
    for name in GATED_BENCHMARKS:
        if name not in current.results or name not in baseline.results:
            continue
        base_ops = baseline.results[name].best_ops
        cur_ops = current.results[name].best_ops
        if base_ops <= 0:
            continue
        if 1.0 - cur_ops / base_ops > tolerance:
            regressions.append(
                Regression(
                    name=name, baseline_ops=base_ops, current_ops=cur_ops
                )
            )
    speedup = fused_speedup(current)
    if speedup is not None and speedup < FUSED_SPEEDUP_FLOOR:
        regressions.append(
            Regression(
                name="fused_speedup_floor",
                baseline_ops=FUSED_SPEEDUP_FLOOR,
                current_ops=speedup,
            )
        )
    batched = fleet_speedup(current)
    if batched is not None and batched < FLEET_SPEEDUP_FLOOR:
        regressions.append(
            Regression(
                name="fleet_speedup_floor",
                baseline_ops=FLEET_SPEEDUP_FLOOR,
                current_ops=batched,
            )
        )
    return regressions


def render_report(
    report: PerfReport, baseline: Optional[PerfReport] = None
) -> str:
    """A human-readable summary of a report (vs a baseline, if given)."""
    lines = [f"benchmarks ({report.mode} mode, scale {report.scale}):"]
    for name, result in sorted(report.results.items()):
        line = (
            f"  {name:22s} mean {result.mean_s * 1e3:9.3f} ms   "
            f"best {result.best_s * 1e3:9.3f} ms   {result.rounds} rounds"
        )
        if baseline is not None and name in baseline.results:
            base = baseline.results[name]
            if base.best_ops > 0:
                delta = result.best_ops / base.best_ops - 1.0
                line += f"   {delta:+.1%} vs baseline"
        lines.append(line)
    cold = report.results.get("artifact_cache_cold")
    warm = report.results.get("artifact_cache_warm")
    if cold is not None and warm is not None and warm.mean_s > 0:
        lines.append(
            f"  artifact cache cold→warm speedup: "
            f"{cold.mean_s / warm.mean_s:.2f}x"
        )
    speedup = fused_speedup(report)
    if speedup is not None:
        lines.append(
            f"  fused sweep speedup: {speedup:.2f}x over per-cell "
            f"(gate floor {FUSED_SPEEDUP_FLOOR:.1f}x)"
        )
    batched = fleet_speedup(report)
    if batched is not None:
        fleet = report.results["fleet_sim"]
        lines.append(
            f"  fleet speedup at {fleet.items} devices: {batched:.1f}x "
            f"over the per-device loop "
            f"(gate floor {FLEET_SPEEDUP_FLOOR:.1f}x)"
        )
    return "\n".join(lines)


def render_markdown_delta(
    current: PerfReport, baseline: Optional[PerfReport]
) -> str:
    """A GitHub-flavoured markdown table of committed-vs-current deltas.

    Written into ``$GITHUB_STEP_SUMMARY`` by ``repro bench`` so
    perf-smoke regressions are diagnosable from the Actions UI without
    a local reproduction.
    """
    lines = [
        f"### Benchmarks ({current.mode} mode, scale {current.scale})",
        "",
        "| benchmark | best (ms) | mean (ms) | committed best (ms) "
        "| Δ best throughput | gated |",
        "| --- | ---: | ---: | ---: | ---: | :---: |",
    ]
    for name, result in sorted(current.results.items()):
        base_cell = delta_cell = "—"
        if baseline is not None and name in baseline.results:
            base = baseline.results[name]
            base_cell = f"{base.best_s * 1e3:.3f}"
            if base.best_ops > 0:
                delta_cell = f"{result.best_ops / base.best_ops - 1.0:+.1%}"
        gated = "yes" if name in GATED_BENCHMARKS else "no"
        lines.append(
            f"| `{name}` | {result.best_s * 1e3:.3f} "
            f"| {result.mean_s * 1e3:.3f} | {base_cell} "
            f"| {delta_cell} | {gated} |"
        )
    speedup = fused_speedup(current)
    if speedup is not None:
        lines.append("")
        lines.append(
            f"Fused sweep speedup: **{speedup:.2f}x** over per-cell "
            f"(gate floor {FUSED_SPEEDUP_FLOOR:.1f}x)."
        )
    batched = fleet_speedup(current)
    if batched is not None:
        fleet = current.results["fleet_sim"]
        lines.append("")
        lines.append(
            f"Fleet speedup at {fleet.items} devices: **{batched:.1f}x** "
            f"over the per-device loop "
            f"(gate floor {FLEET_SPEEDUP_FLOOR:.1f}x)."
        )
    return "\n".join(lines) + "\n"
