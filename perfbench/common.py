"""What every workload shares: the checkout, the child environment,
process timing with peak resident set, the reference work, and the
run's tally."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Variables that would change what ``repro`` does; a user's shell has
#: none of them set by default.
CLEARED_ENV = ("REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_FUSED",
               "REPRO_FAULT_PLAN")

SCALE = "0.5"

#: Timed before and after every measured command (README: Calibration).
REFERENCE_WORK = Path(__file__).resolve().parent / "reference_work.py"


@dataclass
class Finished:
    """One ``repro`` process, run to completion."""

    argv: list[str]
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


class Checkout:
    """The source tree under test and a private work directory in it."""

    def __init__(self, root: Path, workload: str) -> None:
        self.root = root
        self.work = root / ".bench_work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        env = {k: v for k, v in os.environ.items()
               if k not in CLEARED_ENV}
        # Users get cached bytecode; a benchmark that recompiled every
        # module in every process would time the compiler instead.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(self.work / "tmp")
        self.env = env
        self._serial = 0

    def path(self, name: str) -> Path:
        return self.work / name

    def run(self, argv: list[str]) -> Finished:
        """Run ``argv`` from the checkout root; time it from outside.

        The wall time covers interpreter start and exit.  The peak
        resident set comes from ``wait4``, which reports the largest of
        the process and every descendant it reaped (forked pool
        workers included).
        """
        self._serial += 1
        out_path = self.work / f"out-{self._serial}.txt"
        err_path = self.work / f"err-{self._serial}.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            process = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                       stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:  # a SIGTERM to the benchmark, say
                process.kill()
                process.wait()
                raise
            wall = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        finished = Finished(
            argv=argv,
            code=process.returncode,
            wall=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )
        out_path.unlink()
        err_path.unlink()
        return finished

    def repro(self, *args: str) -> Finished:
        return self.run([sys.executable, "-m", "repro", *args])

    def reference(self) -> float:
        """Wall time of the fixed reference work in a fresh interpreter."""
        done = self.run([sys.executable, str(REFERENCE_WORK)])
        if done.code != 0:
            raise RuntimeError(f"reference work exited {done.code}: "
                               f"{done.stderr.strip()[-500:]}")
        return done.wall

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int, reason: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(reason)
            print(f"FAILED ({failed} of {attempted}): {reason}",
                  file=sys.stderr)

    def check(self, ok: bool, what: str) -> bool:
        self.record(1, 0 if ok else 1, what)
        return ok
