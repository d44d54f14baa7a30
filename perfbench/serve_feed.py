"""The serve-feed workload: ``repro serve`` under two closed-loop agents.

A run repeats *cycles* until ``--seconds`` have passed (at least
:data:`MIN_CYCLES`).  Each cycle starts a fresh daemon with the shipped
flags, warms it with a renamed copy of one execution per application,
then feeds the whole scale-0.5 suite through two :class:`ServeClient`
threads on two connections.  Each thread blocks for a decision before
sending its next execution, so the loop is closed: a slower daemon
receives less load.  Every cycle feeds the same executions, so every
cycle runs the same number of journal compactions.  Health and tables
are read before the SIGTERM drain; the offline equivalence check runs
after all cycles.  The reference work is timed before and after each
cycle, and the cycle's set-up, latencies and feed time are calibrated
by it.  ``wall_s`` is the mean calibrated time of one cycle's feed, the
whole suite from first submission to last decision; throughput and the
latency percentiles are printed beside it.
"""

from __future__ import annotations

import dataclasses
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import benchmath
import probes
from common import SCALE, Checkout, Tally

CLIENTS = 2
MIN_CYCLES = 2
READY_POLL_S = 0.005
#: Warm-up copies run under ``<application>~warmup``; the six renamed
#: applications hash to both shards (three each).
WARMUP_SUFFIX = "~warmup"
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


def build_feed(suite: dict, seed: str) -> list:
    """The suite's executions interleaved across applications.

    Each step draws an application with probability proportional to
    its remaining executions, so every interleaving that keeps each
    application's execution order is equally likely under ``seed``.
    """
    rng = random.Random(seed)
    queues = {app: list(trace.executions) for app, trace in suite.items()}
    feed = []
    while queues:
        apps = sorted(queues)
        app = rng.choices(apps, weights=[len(queues[a]) for a in apps])[0]
        feed.append(queues[app].pop(0))
        if not queues[app]:
            del queues[app]
    return feed


def warmup_feed(feed: list) -> list:
    """The first execution of each application, in feed order, renamed.

    The copies take the daemon's whole path (sockets, journal, filter,
    replay, both shards) but train predictor state of their own, so the
    timed feed finds every application's predictor untouched, as a
    device's first execution would.
    """
    seen: set = set()
    out = []
    for execution in feed:
        if execution.application not in seen:
            seen.add(execution.application)
            out.append(dataclasses.replace(
                execution,
                application=execution.application + WARMUP_SUFFIX))
    return out


@dataclass
class Phase:
    """Decisions of one feed phase across both client threads."""

    #: ``(client_id, execution, decision, latency_s)`` in arrival order.
    decided: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    duration: float = 0.0


@dataclass
class Cycle:
    feed: list = field(default_factory=list)
    warmup_feed: list = field(default_factory=list)
    setup: float = 0.0
    warmup: Phase = field(default_factory=Phase)
    timed: Phase = field(default_factory=Phase)
    health: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    exit_code: int | None = None
    rss_mb: float = 0.0


def drive(clients: list, feed: list,
          recorder: probes.SpanRecorder | None = None) -> Phase:
    """Feed ``feed`` through the clients; client *i* sends items i, i+n, ..."""
    phase = Phase()
    lock = threading.Lock()

    def agent(index: int) -> None:
        client = clients[index]
        root = recorder.begin("serve.client.feed") if recorder else None
        try:
            for execution in feed[index::len(clients)]:
                start = time.perf_counter()
                decision = client.submit_execution(execution)
                latency = time.perf_counter() - start
                with lock:
                    phase.decided.append(
                        (client.client_id, execution, decision, latency))
        except Exception as exc:  # reported as failed decisions
            with lock:
                phase.errors.append(f"{client.client_id}: {exc}")
        finally:
            if root is not None:
                recorder.end(root)

    threads = [threading.Thread(target=agent, args=(index,))
               for index in range(len(clients))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.duration = time.perf_counter() - start
    return phase


class ServeFeed:
    def __init__(self, checkout: Checkout, tally: Tally, seed: int) -> None:
        from repro.workloads import build_suite

        self.co = checkout
        self.tally = tally
        self.seed = seed
        self.suite = build_suite(scale=float(SCALE))
        self.cycles: list[Cycle] = []

    # -- one cycle --------------------------------------------------------
    def cycle(self, recorder: probes.SpanRecorder | None = None) -> Cycle:
        from repro.serve.client import ServeClient, control_request

        number = len(self.cycles) + 1
        # Relative to the checkout root (the daemon's and our cwd): Unix
        # socket paths are limited to ~100 bytes.
        sock = os.path.relpath(self.co.path(f"d{number}.sock"))
        control = sock + ".ctl"
        # Each cycle gets its own order, so a run averages over several
        # interleavings instead of repeating one seed's queueing.
        feed = build_feed(self.suite, f"{self.seed}/{number}")
        result = Cycle(feed=feed, warmup_feed=warmup_feed(feed))
        with open(self.co.path(f"daemon-{number}.log"), "wb") as log:
            start = time.perf_counter()
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", sock,
                 "--state-dir", str(self.co.path(f"state-{number}"))],
                cwd=self.co.root, env=self.co.env, stdout=log,
                stderr=subprocess.STDOUT)
        try:
            self._wait_ready(daemon, control)
            clients = [ServeClient(sock, f"agent-{i}")
                       for i in range(CLIENTS)]
            result.warmup = drive(clients, result.warmup_feed)
            result.setup = time.perf_counter() - start
            if recorder is not None:
                probes.install_client_probes(recorder)
            result.timed = drive(clients, feed, recorder)
            result.health = control_request(control, "health")
            result.tables = control_request(control, "tables")
            for client in clients:
                client.close()
        finally:
            self._drain(daemon, result)
        self.cycles.append(result)
        return result

    def _wait_ready(self, daemon: subprocess.Popen, control: str) -> None:
        from repro.errors import ServeError
        from repro.serve.client import control_request

        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if daemon.poll() is not None:
                raise ServeError(f"daemon exited {daemon.returncode} "
                                 "during start-up")
            try:
                if control_request(control, "ping", timeout=2.0).get("ok"):
                    return
            except (OSError, ServeError, ValueError):
                time.sleep(READY_POLL_S)
        raise ServeError(f"daemon not ready within {READY_TIMEOUT_S} s")

    def _drain(self, daemon: subprocess.Popen, result: Cycle) -> None:
        if daemon.poll() is not None:  # died early, already reaped
            result.exit_code = daemon.returncode
            return
        daemon.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(daemon.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                daemon.kill()
                _, status, usage = os.wait4(daemon.pid, 0)
                break
            time.sleep(0.02)
        daemon.returncode = os.waitstatus_to_exitcode(status)
        result.exit_code = daemon.returncode
        result.rss_mb = usage.ru_maxrss / 1024.0

    # -- checks -----------------------------------------------------------
    def verify(self, cycle: Cycle) -> None:
        """Count the cycle's decisions, failing all of them if any is
        missing or the cycle is not bit-identical to the offline replay
        of its journal-order feed."""
        from repro.serve.harness import ScenarioResult, verify_equivalence

        decided = cycle.warmup.decided + cycle.timed.decided
        attempted = len(cycle.warmup_feed) + len(cycle.feed)
        missing = attempted - len(decided)
        failures = list(cycle.warmup.errors + cycle.timed.errors)
        if missing:
            failures.append(f"{missing} decision(s) missing")
        if cycle.exit_code != 0:
            failures.append(f"daemon exited {cycle.exit_code}")
        scenario = ScenarioResult(
            decisions=[decision for _, _, decision, _ in decided],
            health=cycle.health, tables=cycle.tables,
            exit_code=cycle.exit_code, client_errors=list(failures))
        for _, execution, decision in _journal_order(decided):
            scenario.feed.setdefault(decision["application"], []).append(
                execution)
        failures.extend(f for f in verify_equivalence(scenario)
                        if f not in failures)
        self.tally.record(attempted, attempted if failures else 0,
                          "; ".join(failures[:3]))

    # -- traced pass ------------------------------------------------------
    def traced(self, untraced_feed_s: float) -> dict:
        recorder = probes.SpanRecorder()
        cycle = self.cycle(recorder)
        self.verify(cycle)
        shard_totals = self._worker_split(cycle, recorder)
        spans = recorder.spans
        wall = sum(probes.span_durations(spans, "serve.client.feed"))
        times = probes.layer_times(spans)
        worker_total = sum(probes.span_durations(spans, "serve.worker"))
        submit_self = benchmath.self_time_by_name(spans).get(
            "serve.client.submit", 0.0)
        times["serve.transport_s"] = submit_self - worker_total
        metrics = dict(times)
        counts = recorder.counts
        metrics.update({
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - sum(times.values()),
            "trace.overhead_s": cycle.timed.duration - untraced_feed_s,
            "serve.state.compactions": counts.get(
                "serve.state.compactions", 0),
            "serve.daemon.incidents": len(cycle.health.get("incidents", [])),
            "serve.daemon.decisions": cycle.health.get("decisions", 0),
            "serve.daemon.shard_skew": (
                max(shard_totals) / (sum(shard_totals) / len(shard_totals))),
            "cache.filter_calls": counts.get("cache.filter_calls", 0),
            "cache.disk_accesses": counts.get("cache.disk_accesses", 0),
            "sim.engine.replays": counts.get("sim.engine.replays", 0),
        })
        metrics.update(probes.ratios(recorder.dump()))
        return metrics

    def _worker_split(self, cycle: Cycle,
                      recorder: probes.SpanRecorder) -> list[float]:
        """Replay the cycle's journal-order feed through in-process shard
        workers, warm-up unprobed, and return each shard's busy time."""
        from repro.serve.worker import ShardWorker, shard_of
        from repro.traces.store import encode_event_rows

        shards = len(cycle.health.get("shards", ())) or 2
        state = self.co.path("inline-state")
        workers = [ShardWorker(shard, str(state)) for shard in range(shards)]
        warm = _journal_order(cycle.warmup.decided)
        timed = _journal_order(cycle.timed.decided)
        totals = [0.0] * shards

        def replay(items: list) -> None:
            for client_id, execution, decision in items:
                worker = workers[shard_of(execution.application, shards)]
                rows = encode_event_rows(execution.events)
                first = len(recorder.spans)
                worker.process(
                    client=client_id, client_seq=decision["seq"],
                    application=execution.application,
                    execution_index=execution.execution_index,
                    initial_pids=sorted(execution.initial_pids), rows=rows)
                totals[worker.shard_id] += sum(probes.span_durations(
                    recorder.spans[first:], "serve.worker"))

        replay(warm)
        probes.install_worker_probes(recorder)
        replay(timed)
        for worker in workers:
            worker.journal.close()
        return totals


def _journal_order(decided: list) -> list:
    """``(client, execution, decision)`` in each shard's journal order."""
    ordered = sorted(decided, key=lambda item: item[2].get("app_seq", 0))
    return [(client, execution, decision)
            for client, execution, decision, _ in ordered]


def run_serve(checkout: Checkout, tally: Tally, seconds: float, trace: bool,
              seed: int) -> tuple[dict, list[str]]:
    """Run the serve-feed workload; returns ``(metrics, report lines)``."""
    bench = ServeFeed(checkout, tally, seed)
    references = [checkout.reference()]
    start = time.perf_counter()
    while (len(bench.cycles) < MIN_CYCLES
           or time.perf_counter() - start < seconds):
        bench.cycle()
        references.append(checkout.reference())
    for cycle in bench.cycles:
        bench.verify(cycle)
    # Each cycle is calibrated by the reference work's mean wall around it.
    around = [(a + b) / 2 for a, b in zip(references, references[1:])]
    latencies = [benchmath.calibrated(item[3], reference)
                 for cycle, reference in zip(bench.cycles, around)
                 for item in cycle.timed.decided]
    feed_times = [benchmath.calibrated(cycle.timed.duration, reference)
                  for cycle, reference in zip(bench.cycles, around)]
    # Did the warm-up reach steady latency?  Compare the first tenth of
    # every cycle's timed decisions, in arrival order, with the rest.
    head, tail = [], []
    for cycle in bench.cycles:
        cut = len(cycle.timed.decided) // 10
        head += [item[3] for item in cycle.timed.decided[:cut]]
        tail += [item[3] for item in cycle.timed.decided[cut:]]
    durations = [cycle.timed.duration for cycle in bench.cycles]
    setups = [cycle.setup for cycle in bench.cycles]
    lines = [
        f"feed: {len(bench.cycles[0].feed)} executions per cycle, each "
        f"cycle in its own order, after a "
        f"{len(bench.cycles[0].warmup_feed)}-execution warm-up; "
        f"{CLIENTS} closed-loop clients",
        f"cycles: {len(bench.cycles)}, feed "
        + ", ".join(f"{d:.3f}" for d in durations) + " s, set-up "
        + ", ".join(f"{s:.3f}" for s in setups) + " s",
        "reference work around each cycle: "
        + ", ".join(f"{r:.3f}" for r in around) + " s",
        f"as measured: {len(latencies) / sum(durations):.2f} decisions/s, "
        "p50 " + f"{benchmath.median(head + tail) * 1e3:.3f} ms",
        f"calibrated: {len(latencies) / sum(feed_times):.2f} decisions/s",
        f"warm-up check: median latency {benchmath.median(head) * 1e3:.2f} "
        f"ms over each cycle's first tenth ({len(head)} decisions), "
        f"{benchmath.median(tail) * 1e3:.2f} ms over the rest "
        f"({len(tail)})",
    ]
    for label, q in (("p50", 0.5), ("p90", 0.9)):
        point = benchmath.percentile(latencies, q)
        if point is None:
            lines.append(f"decision latency {label}: withheld, "
                         f"{len(latencies)} samples leave fewer than "
                         f"{benchmath.MIN_SAMPLES_BEYOND} beyond it")
        else:
            lines.append(f"decision latency {label}: {point[0] * 1e3:.3f} "
                         f"ms calibrated, over {point[1]} samples")
    if trace:
        return bench.traced(benchmath.median(durations)), lines
    return {
        "wall_s": statistics.fmean(feed_times),
        "setup_s": benchmath.median([
            benchmath.calibrated(setup, reference)
            for setup, reference in zip(setups, around)]),
        "peak_rss_mb": benchmath.median([c.rss_mb for c in bench.cycles]),
    }, lines
