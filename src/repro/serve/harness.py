"""End-to-end serve scenario driver and offline equivalence checking.

:func:`run_scenario` is the one shared harness behind the serve pytest
battery, the ``repro faults`` serve phase, and
``tools/check_serve_equivalence.py``: it starts a real daemon
subprocess (``python -m repro serve``), drives N concurrent feed
clients from the synthetic workload suite, optionally SIGKILLs a shard
worker mid-stream, then drains the daemon with SIGTERM and collects
everything needed for verification — per-client decisions, health and
table snapshots, and the daemon's exit code.

:func:`verify_equivalence` is the non-circular correctness check: it
replays the *recorded feed* (the per-application execution sequence the
clients actually submitted, in decision order) through the offline
:meth:`~repro.sim.experiment.ExperimentRunner.run_global` path and
asserts

* merged prediction counters match the offline stats **exactly**
  (integer counters, bit-identical idle seconds),
* summed per-execution energy matches the offline ledger total
  **bit-identically** (same float addition order),
* the daemon's final table snapshots equal an offline replay's
  snapshots key for key, and
* shutdown decision timelines (``fired``) match per execution.

Because the daemon's workers run the same simulation code, agreement
here proves the *service machinery* — sharding, supervision, restarts,
retries, journal recovery — added or lost nothing.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.config import SimulationConfig
from repro.errors import ServeError
from repro.predictors.registry import make_spec
from repro.serve.client import ServeClient, control_request
from repro.serve.worker import table_snapshot
from repro.sim.experiment import ExperimentRunner
from repro.sim.metrics import PredictionStats
from repro.sim.tracing import ShutdownFired
from repro.traces.trace import ApplicationTrace
from repro.workloads import build_suite


#: Canned serve chaos scenario (``repro faults`` serve phase and the CI
#: serve-smoke gate): one injected connection drop mid-stream (the
#: client reconnects and its resend dedups in the worker journal), one
#: frame truncated in flight (quarantined daemon-side, resent by the
#: client), and one worker stall past the supervisor deadline (SIGKILL,
#: restart, journal replay, in-flight redelivery).  Tuned for a
#: two-client, two-application scenario at scale 0.05 with a stall
#: timeout of ~3 s.
CANNED_SERVE_CHAOS_PLAN = (
    "serve.conn_drop,app=client-0,at=3;"
    "serve.frame_truncate,app=client-1,at=2;"
    "serve.worker_stall,app=mozilla,at=2,seconds=8"
)


@dataclass
class ScenarioResult:
    """Everything a verifier needs from one scenario run."""

    decisions: list[dict] = field(default_factory=list)
    #: ``application -> executions`` in the order decisions arrived.
    feed: dict[str, list] = field(default_factory=dict)
    health: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    exit_code: Optional[int] = None
    killed_pid: Optional[int] = None
    client_errors: list[str] = field(default_factory=list)


class _FiredSink:
    """Tracer that keeps only the ``shutdown-fired`` events of a run, as
    the ``[time, offset, gap_length, source, hit]`` rows a decision's
    ``fired`` carries: the offline side of the timeline check, taken
    from the events a traced run emits."""

    __slots__ = ("fired",)

    def __init__(self) -> None:
        self.fired: list[list] = []

    def emit(self, event) -> None:
        if isinstance(event, ShutdownFired):
            self.fired.append([
                event.time, event.offset, event.gap_length,
                event.source, event.hit,
            ])


def spawn_daemon(
    *,
    socket_path: str,
    state_dir: str,
    predictor: str = "PCAP",
    shards: int = 2,
    stall_timeout: float = 5.0,
    fault_plan: Optional[str] = None,
    extra_args: tuple[str, ...] = (),
) -> subprocess.Popen:
    """Start ``repro serve`` as a subprocess and wait until it answers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), _src_path()) if p
    )
    if fault_plan:
        env["REPRO_FAULT_PLAN"] = fault_plan
    else:
        env.pop("REPRO_FAULT_PLAN", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro",
         *(("--fault-plan", fault_plan) if fault_plan else ()),
         "serve",
         "--socket", socket_path,
         "--state-dir", state_dir,
         "--predictor", predictor,
         "--shards", str(shards),
         "--stall-timeout", str(stall_timeout),
         *extra_args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 60.0
    control = socket_path + ".ctl"
    while time.monotonic() < deadline:
        if process.poll() is not None:
            output = process.stdout.read().decode("utf-8", "replace")
            raise ServeError(
                f"daemon exited {process.returncode} during startup:\n"
                f"{output}"
            )
        try:
            if control_request(control, "ping", timeout=2.0).get("ok"):
                return process
        except (OSError, ServeError, ValueError):
            time.sleep(0.1)
    process.kill()
    raise ServeError("daemon did not come up within 60 s")


def _src_path() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))


def run_scenario(
    *,
    socket_path: str,
    state_dir: str,
    clients: int = 8,
    predictor: str = "PCAP",
    shards: int = 2,
    scale: float = 0.05,
    applications: Optional[tuple[str, ...]] = None,
    stall_timeout: float = 5.0,
    fault_plan: Optional[str] = None,
    kill_worker_after: Optional[int] = None,
) -> ScenarioResult:
    """Drive one full daemon lifecycle; see the module docstring.

    ``kill_worker_after`` SIGKILLs the first live forked shard worker
    once that many decisions have arrived — the mid-stream crash drill.
    Client *i* is named ``client-<i>`` and owns every ``execution_index
    % clients == i`` execution of each application, so the feed is
    deterministic for a given (suite scale, client count).
    """
    suite = build_suite(
        scale=scale,
        **({"applications": applications} if applications else {}),
    )
    result = ScenarioResult()
    daemon = spawn_daemon(
        socket_path=socket_path, state_dir=state_dir,
        predictor=predictor, shards=shards, stall_timeout=stall_timeout,
        fault_plan=fault_plan,
    )
    control = socket_path + ".ctl"
    lock = threading.Lock()
    kill_state = {"done": kill_worker_after is None}

    def maybe_kill() -> None:
        if kill_state["done"]:
            return
        if len(result.decisions) < kill_worker_after:
            return
        kill_state["done"] = True
        health = control_request(control, "health")
        for shard in health.get("shards", ()):
            pid = shard.get("pid")
            if pid and not shard.get("degraded"):
                os.kill(pid, signal.SIGKILL)
                result.killed_pid = pid
                return

    def drive(index: int) -> None:
        client = ServeClient(socket_path, f"client-{index}")
        try:
            with client:
                for application in sorted(suite):
                    for execution in suite[application].executions:
                        if execution.execution_index % clients != index:
                            continue
                        decision = client.submit_execution(execution)
                        with lock:
                            result.decisions.append(decision)
                            maybe_kill()
        except Exception as exc:  # collected, not raised mid-thread
            with lock:
                result.client_errors.append(
                    f"client-{index}: {exc}"
                )

    threads = [
        threading.Thread(target=drive, args=(index,), daemon=True)
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600.0)

    try:
        result.health = control_request(control, "health")
        result.tables = control_request(control, "tables")
    except (OSError, ServeError, ValueError) as exc:
        result.client_errors.append(f"control socket: {exc}")
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=120.0)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        result.exit_code = daemon.returncode

    # Reconstruct the feed in the workers' actual processing order:
    # each decision carries its shard-journal position (``app_seq``),
    # which is the order table state evolved in — client arrival order
    # is a race, journal order is the truth an offline replay must
    # follow.
    by_index = {
        (application, execution.execution_index): execution
        for application, trace in suite.items()
        for execution in trace.executions
    }
    for decision in sorted(
            result.decisions, key=lambda d: d.get("app_seq", 0)):
        application = decision["application"]
        execution = by_index.get(
            (application, decision["execution_index"])
        )
        if execution is not None:
            result.feed.setdefault(application, []).append(execution)
    return result


def offline_tables(
    feed: dict[str, list],
    *,
    predictor: str = "PCAP",
    config: Optional[SimulationConfig] = None,
) -> dict:
    """Offline per-application table snapshots for a recorded feed."""
    config = config or SimulationConfig()
    runner = ExperimentRunner(
        {
            application: ApplicationTrace(application, list(executions))
            for application, executions in feed.items()
        },
        config=config,
    )
    snapshots = {}
    for application in sorted(feed):
        spec = make_spec(predictor, config)
        runner.run_global(application, spec)
        snapshots[application] = table_snapshot(spec)
    return snapshots


def verify_equivalence(
    result: ScenarioResult,
    *,
    predictor: str = "PCAP",
    config: Optional[SimulationConfig] = None,
) -> list[str]:
    """Compare a scenario against the offline replay; returns failures.

    An empty list means every check held bit-identically.
    """
    failures: list[str] = []
    config = config or SimulationConfig()
    if result.client_errors:
        failures.extend(result.client_errors)
        return failures
    runner = ExperimentRunner(
        {
            application: ApplicationTrace(application, list(executions))
            for application, executions in result.feed.items()
        },
        config=config,
    )

    by_app: dict[str, list[dict]] = {}
    for decision in sorted(
            result.decisions, key=lambda d: d.get("app_seq", 0)):
        by_app.setdefault(decision["application"], []).append(decision)

    for application in sorted(result.feed):
        sink = _FiredSink()
        offline = runner.run_global(application, predictor, tracer=sink)
        decisions = by_app.get(application, [])
        if len(decisions) != len(result.feed[application]):
            failures.append(
                f"{application}: {len(decisions)} decision(s) for "
                f"{len(result.feed[application])} submitted execution(s)"
            )
            continue
        online_stats = PredictionStats.merged([
            PredictionStats.from_dict(d["stats"]) for d in decisions
        ])
        if online_stats != offline.stats:
            failures.append(
                f"{application}: online counters {online_stats.to_dict()} "
                f"!= offline {offline.stats.to_dict()}"
            )
        # Field-wise sums in processing order, then the same four-term
        # total the offline ledger computes — bit-identical or bust.
        sums = {"busy": 0.0, "idle_short": 0.0, "idle_long": 0.0,
                "power_cycle": 0.0}
        for decision in decisions:
            energy = decision["energy"]
            for name in sums:
                sums[name] += energy[name]
        online_energy = (sums["busy"] + sums["idle_short"]
                         + sums["idle_long"] + sums["power_cycle"])
        offline_energy = offline.ledger.total
        if online_energy != offline_energy:
            failures.append(
                f"{application}: online energy {online_energy!r} != "
                f"offline {offline_energy!r}"
            )
        online_shutdowns = sum(d["shutdowns"] for d in decisions)
        if online_shutdowns != offline.shutdowns:
            failures.append(
                f"{application}: online shutdowns {online_shutdowns} != "
                f"offline {offline.shutdowns}"
            )
        online_fired = [
            fired for decision in decisions
            for fired in decision["fired"]
        ]
        if online_fired != _jsonify(sink.fired):
            failures.append(
                f"{application}: shutdown-fired timelines differ "
                f"({len(online_fired)} online vs {len(sink.fired)} "
                "offline events)"
            )

    snapshots = offline_tables(
        result.feed, predictor=predictor, config=config
    )
    online_tables = result.tables.get("applications", {})
    for application, expected in snapshots.items():
        actual = online_tables.get(application)
        if actual != _jsonify(expected):
            failures.append(
                f"{application}: table snapshot mismatch\n"
                f"  online : {actual}\n"
                f"  offline: {_jsonify(expected)}"
            )
    return failures


def _jsonify(obj):
    """Normalize a snapshot the way a JSON round trip would."""
    import json

    return json.loads(json.dumps(obj))
