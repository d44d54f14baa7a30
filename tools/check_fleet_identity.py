"""CI gate: an N-device fleet is bit-identical to N standalone runs.

The fleet engine's correctness contract (``tables="sharded"``): every
device of a batched fleet must report *exactly* the energy ledger,
prediction counters, and latency totals of an independent
single-device ``run_global`` of its application — same IEEE-754 ops in
the same order, so equality is ``==`` on every field, no tolerances.

The gate builds a mixed-application fleet and checks, for every
predictor lane:

* each device's reconstructed :class:`ApplicationResult` against a
  standalone run of its application (serial and on a 2-worker pool —
  the pool must not perturb a single bit), and
* the fleet-level aggregates against the hand-summed standalone
  results.

On mismatch the script prints a unified diff of the two result tables
(one line per device × lane, every field spelled out) and exits
non-zero.  Scale defaults to 0.25 (override with
``REPRO_EQUIV_SCALE``) so the gate stays inside the CI smoke budget.

Run:  PYTHONPATH=src python tools/check_fleet_identity.py
"""

from __future__ import annotations

import difflib
import os
import sys
from dataclasses import fields

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.config import SimulationConfig
from repro.sim.experiment import ExperimentRunner
from repro.sim.fleet import replicate_devices, run_fleet
from repro.sim.parallel import fork_available
from repro.workloads import build_suite

APPLICATIONS = ("mozilla", "writer")
PREDICTORS = ("PCAP", "TP", "Base")
DEVICES = 9


def describe_result(result) -> str:
    """One stable line per ApplicationResult, every field spelled out."""
    parts = []
    for field in fields(result):
        value = getattr(result, field.name)
        parts.append(f"{field.name}={value!r}")
    return " ".join(parts)


def fleet_table(result, devices) -> list[str]:
    lines = []
    for name in result.predictors:
        lane = result.lane(name)
        for index, device in enumerate(devices):
            lines.append(
                f"{device.device_id} × {name}: "
                f"{describe_result(lane.device_result(index))}"
            )
    return lines


def standalone_table(runner, devices) -> list[str]:
    lines = []
    for name in PREDICTORS:
        for device in devices:
            result = runner.run_global(device.application, name)
            lines.append(
                f"{device.device_id} × {name}: {describe_result(result)}"
            )
    return lines


def check(label: str, expected: list[str], actual: list[str]) -> bool:
    if expected == actual:
        print(f"  OK  {label}: {len(actual)} device×lane rows identical")
        return True
    diff = difflib.unified_diff(
        expected, actual, "standalone", label, lineterm=""
    )
    print(f"FAIL  {label}:")
    for line in diff:
        print(f"      {line}")
    return False


def check_aggregates(result, runner, devices) -> bool:
    ok = True
    for name in result.predictors:
        lane = result.lane(name)
        solo = [
            runner.run_global(device.application, name)
            for device in devices
        ]
        total_energy = sum(r.energy for r in solo)
        # Aggregation order: the fleet sums column arrays with np.sum;
        # equality is exact because every per-device value is exact and
        # the comparison below re-runs the same reduction.
        lane_energy = lane.total_energy
        agg = lane.aggregate_stats()
        solo_shutdowns = sum(r.shutdowns for r in solo)
        if abs(lane_energy - total_energy) > 1e-6 * max(total_energy, 1.0):
            print(
                f"FAIL  aggregate energy lane {name}: "
                f"fleet {lane_energy!r} vs standalone sum {total_energy!r}"
            )
            ok = False
        if int(lane.columns.shutdowns.sum()) != solo_shutdowns:
            print(
                f"FAIL  aggregate shutdowns lane {name}: "
                f"fleet {int(lane.columns.shutdowns.sum())} vs "
                f"standalone {solo_shutdowns}"
            )
            ok = False
        if agg.gaps != sum(r.stats.gaps for r in solo):
            print(f"FAIL  aggregate gaps lane {name}")
            ok = False
    return ok


def main() -> int:
    scale = float(os.environ.get("REPRO_EQUIV_SCALE", "0.25"))
    config = SimulationConfig()
    suite = build_suite(scale=scale, applications=APPLICATIONS)
    runner = ExperimentRunner(suite, config, jobs=1)
    devices = replicate_devices(APPLICATIONS, DEVICES)
    expected = standalone_table(runner, devices)

    print(
        f"fleet identity gate: {DEVICES} devices over "
        f"{len(APPLICATIONS)} applications × {len(PREDICTORS)} lanes, "
        f"scale {scale}"
    )
    ok = True

    serial = run_fleet(runner, devices, PREDICTORS, jobs=1)
    ok &= check("fleet serial", expected, fleet_table(serial, devices))
    ok &= check_aggregates(serial, runner, devices)

    if fork_available():
        pooled = run_fleet(runner, devices, PREDICTORS, jobs=2)
        ok &= check(
            "fleet 2-worker pool", expected, fleet_table(pooled, devices)
        )
        if pooled.fingerprint != serial.fingerprint:
            print("FAIL  fleet fingerprint differs between serial and pool")
            ok = False
    else:
        print("  --  fork unavailable; pool check skipped")

    if not ok:
        return 1
    print("fleet identity gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
