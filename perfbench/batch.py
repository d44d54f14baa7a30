"""The two batch workloads: ``repro reproduce`` over a filled artifact
cache, and ``repro run`` over a packed trace store.

Every command runs in a fresh interpreter, as a user would start it,
and its output is checked before its time counts.  A run repeats the
timed command until ``--seconds`` have passed, timing the reference
work before and after each, and reports the mean calibrated wall time
of its commands (see the README for why calibrated, and why the mean).
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

import benchmath
import probes
from common import SCALE, Checkout, Finished, Tally

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

#: The Figure 8 predictor set.
FIG8_PREDICTORS = ("Base", "Ideal", "TP", "LT", "PCAP")

#: Set-up commands per run; ``setup_s`` is their calibrated median.
SETUP_REPEATS = {"reproduce-warm": 2, "run-store": 2}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_store_digest(stdout: str) -> str:
    """Digest of ``repro run``'s result rows and ledger failure counts.

    The banner is left out (it gains `` [fused]`` when the batch path
    changes) and so is the ledger's cell count (the fused path runs one
    cell per application instead of one per application and predictor).
    """
    rows = [line for line in stdout.splitlines()
            if line.startswith("  ") and not line.startswith("  cell ")]
    ledger = re.search(
        r"resilience ledger: (\d+) cells — (\d+) ok .*?, (\d+) failed, "
        r"(\d+) failed attempt", stdout)
    if ledger is None:
        return "no ledger"
    cells, ok, failed, retried = (int(g) for g in ledger.groups())
    summary = f"all ok={cells == ok} failed={failed} failed_attempts={retried}"
    return sha256("\n".join(rows + [summary]))


def pack_digest(stdout: str, store: Path) -> str:
    return sha256(stdout.replace(str(store), "STORE"))


def _ok(done: Finished) -> bool:
    if done.code != 0:
        tail = done.stderr.strip().splitlines()[-5:]
        print(f"exit {done.code}: {' '.join(done.argv[-6:])}\n  "
              + "\n  ".join(tail), file=sys.stderr)
    return done.code == 0


class BatchWorkload:
    """Set-up, timed command and output check of one batch workload."""

    def __init__(self, name: str, checkout: Checkout, tally: Tally) -> None:
        self.name = name
        self.co = checkout
        self.tally = tally
        self.prepared: Path | None = None
        self._dirs = 0

    # -- commands -------------------------------------------------------
    def _fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        return self.co.path(f"{stem}-{self._dirs}")

    def setup_command(self, target: Path) -> list[str]:
        if self.name == "reproduce-warm":
            return ["reproduce", "--scale", SCALE, "--cache-dir", str(target)]
        return ["trace", "pack", "--scale", SCALE, "--out", str(target)]

    def timed_command(self, prepared: Path, jobs: int = 2) -> list[str]:
        if self.name == "reproduce-warm":
            return ["reproduce", "--scale", SCALE, "--cache-dir",
                    str(prepared)]
        predictors = [arg for name in FIG8_PREDICTORS
                      for arg in ("--predictor", name)]
        return ["run", "--store", str(prepared), "--jobs", str(jobs),
                *predictors]

    def check_setup(self, done: Finished, target: Path) -> bool:
        if self.name == "reproduce-warm":
            ok = sha256(done.stdout) == REFERENCE["reproduce"]
        else:
            ok = pack_digest(done.stdout, target) == REFERENCE["trace-pack"]
        return self.tally.check(_ok(done) and ok,
                                f"{self.name} set-up output differs")

    def check_timed(self, done: Finished) -> bool:
        if self.name == "run-store":
            ok = run_store_digest(done.stdout) == REFERENCE["run-store"]
        else:
            ok = sha256(done.stdout) == REFERENCE["reproduce"]
        return self.tally.check(_ok(done) and ok,
                                f"{self.name} output differs")

    # -- phases -----------------------------------------------------------
    def setup(self) -> list[tuple[float, float]]:
        """Run the set-up several times, the reference work before and
        after each; keep the last one's product.  Returns each set-up's
        wall with the mean of the reference walls around it."""
        walls = []
        before = self.co.reference()
        for _ in range(SETUP_REPEATS[self.name]):
            target = self._fresh_dir("setup")
            done = self.co.repro(*self.setup_command(target))
            self.check_setup(done, target)
            if self.prepared is not None:
                shutil.rmtree(self.prepared, ignore_errors=True)
            self.prepared = target
            after = self.co.reference()
            walls.append((done.wall, (before + after) / 2))
            before = after
        return walls

    def measure(self, seconds: float) -> list[tuple[Finished, float]]:
        """Repeat the timed command for ``seconds``, the reference work
        before and after each; keep the checked runs, each with the mean
        of the reference walls around it."""
        runs = []
        start = time.perf_counter()
        attempts = 0
        before = self.co.reference()
        while not attempts or time.perf_counter() - start < seconds:
            attempts += 1
            done = self.co.repro(*self.timed_command(self.prepared))
            after = self.co.reference()
            if self.check_timed(done):
                runs.append((done, (before + after) / 2))
            before = after
        return runs

    def traced(self, untraced_wall: float) -> dict:
        """One traced pass: the set-up command, then the timed one."""
        metrics: dict = {}
        target = self._fresh_dir("traced")
        done, dump = self._traced_run(self.setup_command(target))
        self.check_setup(done, target)
        metrics.update(probes.batch_layer_metrics(dump, done.wall,
                                                  prefix="setup."))
        # Spans recorded in forked workers never reach the parent, so
        # run-store's cells run serially here, and its overhead is taken
        # against an untraced serial run of the same command.
        command = self.timed_command(target, jobs=1)
        if self.name == "run-store":
            serial = self.co.repro(*command)
            self.check_timed(serial)
            untraced_wall = serial.wall
        done, dump = self._traced_run(command)
        self.check_timed(done)
        metrics.update(probes.batch_layer_metrics(dump, done.wall))
        metrics["trace.overhead_s"] = done.wall - untraced_wall
        return metrics

    def _traced_run(self, args: list[str]) -> tuple[Finished, dict]:
        spans_path = self.co.path("spans.json")
        done = self.co.run([sys.executable, str(HERE / "traced_cli.py"),
                            str(spans_path), *args])
        dump = {"spans": [], "counts": {}, "distinct": {}}
        if spans_path.exists():
            dump = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        return done, dump


def run_batch(name: str, checkout: Checkout, tally: Tally, seconds: float,
              trace: bool) -> tuple[dict, list[str]]:
    """Run one batch workload; returns ``(metrics, report lines)``."""
    workload = BatchWorkload(name, checkout, tally)
    setups = workload.setup()
    setup_walls = [wall for wall, _ in setups]
    runs = workload.measure(seconds)
    walls = [done.wall for done, _ in runs]
    references = [reference for _, reference in runs]
    lines = [
        f"setup: {len(setup_walls)} run(s), "
        + ", ".join(f"{w:.3f}" for w in setup_walls) + " s, reference "
        + ", ".join(f"{r:.3f}" for _, r in setups) + " s",
        f"timed: {len(walls)} run(s), "
        + ", ".join(f"{w:.3f}" for w in walls) + " s",
        "reference work around each: "
        + ", ".join(f"{r:.3f}" for r in references) + " s",
    ]
    if not walls:
        return {}, lines
    wall = statistics.fmean(benchmath.calibrated(done.wall, reference)
                            for done, reference in runs)
    lines.append(f"wall: mean {statistics.fmean(walls):.3f} s as measured, "
                 f"{wall:.3f} s calibrated")
    if trace:
        if name == "run-store":
            lines.append("traced pass: cells run serially (--jobs 1); spans "
                         "recorded in forked workers never reach the parent; "
                         "trace.overhead_s is against an untraced --jobs 1 "
                         "run")
        return workload.traced(statistics.fmean(walls)), lines
    return {
        "wall_s": wall,
        "setup_s": benchmath.median([benchmath.calibrated(*pair)
                                     for pair in setups]),
        "peak_rss_mb": benchmath.median([done.rss_mb for done, _ in runs]),
    }, lines
