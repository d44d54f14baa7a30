"""Run one benchmark workload against the ``repro`` source tree beside it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):
``reproduce-warm``, ``run-store`` and ``serve-feed``.
With ``--trace 0`` the run reports every end-to-end metric of
``BENCHMARK.json``, measured with no probes installed; with ``--trace 1``
it measures the same way, then makes one traced pass and reports every
per-layer metric instead.  Every workload reports every metric of the
set: a layer the workload never enters reads 0 (no span, no count).  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

import benchmath
from batch import run_batch
from common import CLEARED_ENV, Checkout, Tally
from serve_feed import run_serve

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reproduce-warm", "run-store", "serve-feed")


def declared(trace: bool) -> list[dict]:
    """The metrics ``BENCHMARK.json`` declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def select(measured: dict, trace: bool, failed: bool) -> dict:
    """The declared metrics, in declared order, each with its unit.

    A per-layer metric nothing measured is a layer the workload never
    entered, and reads 0.  An end-to-end metric must be measured unless
    an output check failed (its runs do not count), and a measured name
    that is not declared is a defect of the benchmark itself.
    """
    metrics = declared(trace)
    undeclared = set(measured) - {m["name"] for m in metrics}
    if undeclared:
        raise SystemExit(f"measured but not in BENCHMARK.json: "
                         f"{sorted(undeclared)}")
    out = {}
    for metric in metrics:
        name = metric["name"]
        if name not in measured and not trace:
            if failed:
                continue
            raise SystemExit(f"end-to-end metric {name} was not measured")
        out[name] = {"value": measured.get(name, 0), "unit": metric["unit"]}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="orders the serve feed; the batch workloads "
                             "are seedless")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long the timed commands repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro source tree at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    # A SIGTERM unwinds like an exception, so the cleanup below stops the
    # serve daemon and removes the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    checkout = Checkout(ROOT, args.workload)
    # The serve check and the worker split run repro in this process.
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["TMPDIR"] = checkout.env["TMPDIR"]
    tally = Tally()
    try:
        if args.workload == "serve-feed":
            metrics, lines = run_serve(checkout, tally, args.seconds,
                                       bool(args.trace), args.seed)
        else:
            metrics, lines = run_batch(args.workload, checkout, tally,
                                       args.seconds, bool(args.trace))
    finally:
        checkout.close()
    seed_use = ("orders the feed" if args.workload == "serve-feed"
                else "unused: the suite generator seeds itself")
    print(f"workload {args.workload}, seed {args.seed} ({seed_use}), "
          f"trace {args.trace}")
    for line in lines:
        print(line)
    reported = select(metrics, bool(args.trace), tally.failed > 0)
    for name, item in reported.items():
        print(f"{name} = {item['value']:.6g} {item['unit']}")
    print(f"attempted {tally.attempted}, failed {tally.failed} ("
          f"{benchmath.failure_share(tally.attempted, tally.failed):.1%})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
