"""CI gate: the fused sweep kernel is bit-identical to the per-cell path.

Runs the paper's two sweep shapes both ways — through ``sweep()`` and
``run_matrix()``, which take the fused single-pass kernel
(``repro.sim.fused``) for every multi-predictor run, and through a
classic reference of one ``ExperimentRunner.run_global`` call per
(application, variant), folded into sweep points by the same helpers
the tests use (``tests/helpers.py``) — and fails loudly if any table
differs by even a bit:

* the TP timeout ladder (the Figure-7 parameter sweep), serial and on a
  2-worker pool,
* the PCAP family matrix (PCAP/PCAPh/PCAPf/PCAPfh + Base), serial and
  on a 2-worker pool,
* the full predictor registry (every KNOWN_PREDICTORS name, including
  the learned family QDPM/SKI/PI), serial and on a 2-worker pool,
* the learned-family hyperparameter ladders — the ski-rental λ sweep
  and Q-DPM exploration-seed lanes — whose lanes are stateful generic
  lanes with seeded pseudo-randomness; fused vs classic here proves
  the engine call order (and hence the deterministic draw stream) is
  identical in both paths,
* adversarial duplicate/shadowed lane sets — the same lane twice, and
  distinct lanes hiding behind one label — each fused lane diffed
  against an independent classic run of an equivalent fresh spec, and
* the lanes themselves, execution by execution: every registry
  predictor's ``replay_execution`` over each execution's shared tape
  against ``run_global_execution`` on that execution, each side with
  its own fresh spec and ``on_execution_end`` hooks in the same order.

On mismatch the script prints a unified diff of the two result tables
(one line per application × variant, every result field) and exits
non-zero.  Scale defaults to 0.25 (override with
``REPRO_EQUIV_SCALE``) so the gate stays inside the CI smoke budget.

Run:  PYTHONPATH=src python tools/check_fused_equivalence.py
"""

from __future__ import annotations

import difflib
import os
import sys
from dataclasses import fields

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from repro.config import SimulationConfig
from repro.predictors.registry import (
    KNOWN_PREDICTORS,
    base_spec,
    make_spec,
    pcap_spec,
    qdpm_spec,
    ski_spec,
    tp_spec,
)
from repro.sim.engine import build_replay_tape, run_global_execution
from repro.sim.experiment import ExperimentRunner
from repro.sim.fused import replay_execution, run_fused_cells
from repro.sim.parallel import fork_available
from repro.sim.sweep import sweep
from repro.workloads import build_suite
from tests.helpers import classic_matrix, classic_sweep

TIMEOUTS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
PCAP_FAMILY = ("PCAP", "PCAPh", "PCAPf", "PCAPfh", "Base")
SKI_LAMBDAS = (0.0, 0.25, 0.5, 1.0)
QDPM_SEEDS = (0, 1, 7)

#: Adversarial lane sets: exact duplicates (same spec twice) and
#: shadowed lanes (different semantics behind one label).  The fused
#: kernel must keep each lane independent — never collapse by name.
ADVERSARIAL_LANES = (
    ("TP(2s)", lambda config: tp_spec(config, timeout=2.0, name="TP(2s)")),
    ("TP(2s)", lambda config: tp_spec(config, timeout=2.0, name="TP(2s)")),
    ("dup", lambda config: tp_spec(config, timeout=5.0, name="dup")),
    ("dup", lambda config: tp_spec(config, timeout=0.5, name="dup")),
    ("Base", lambda config: base_spec()),
    ("Base", lambda config: base_spec()),
    ("PCAP", lambda config: pcap_spec(config)),
    ("PCAP", lambda config: pcap_spec(config)),
)


def describe_result(result) -> str:
    """One stable line per ApplicationResult, every field spelled out."""
    parts = []
    for field in fields(result):
        value = getattr(result, field.name)
        parts.append(f"{field.name}={value!r}")
    return " ".join(parts)


def sweep_table(points) -> list[str]:
    return [f"point {describe_result(point)}" for point in points]


def matrix_table(matrix) -> list[str]:
    lines = []
    for application in sorted(matrix):
        for name in sorted(matrix[application]):
            result = matrix[application][name]
            lines.append(
                f"{application} × {name}: {describe_result(result)}"
            )
    return lines


def check(label: str, fused_lines: list[str], classic_lines: list[str]) -> bool:
    if fused_lines == classic_lines:
        print(f"ok: {label} — {len(fused_lines)} rows bit-identical")
        return True
    print(f"MISMATCH: {label}", file=sys.stderr)
    diff = difflib.unified_diff(
        classic_lines,
        fused_lines,
        fromfile=f"{label} (per-cell)",
        tofile=f"{label} (fused)",
        lineterm="",
    )
    for line in diff:
        print(line, file=sys.stderr)
    return False


def adversarial_pass(runner, config, jobs: int) -> bool:
    """Duplicate/shadowed lane sets, fused vs independent classic runs.

    The fused kernel runs all lanes of :data:`ADVERSARIAL_LANES` in one
    pass per application; the reference runs each lane separately with
    a fresh equivalent spec through the classic per-cell engine.  Lane
    identity (not label identity) must decide the results.
    """
    labels = [label for label, _ in ADVERSARIAL_LANES]
    outcomes, _ = run_fused_cells(
        runner,
        runner.applications,
        labels,
        lambda: [factory(config) for _, factory in ADVERSARIAL_LANES],
        jobs=jobs,
        use_cache=False,
    )
    fused_lines = []
    classic_lines = []
    for application in runner.applications:
        lane_results = outcomes[application].results
        for lane, (label, factory) in enumerate(ADVERSARIAL_LANES):
            fused_lines.append(
                f"{application} lane {lane} ({label}): "
                f"{describe_result(lane_results[lane])}"
            )
            classic = runner.run_global(application, factory(config))
            classic_lines.append(
                f"{application} lane {lane} ({label}): "
                f"{describe_result(classic)}"
            )
    return check(
        f"duplicate/shadowed lanes (jobs={jobs})", fused_lines, classic_lines
    )


def lane_pass(runner, config) -> bool:
    """Each lane's per-execution replay vs the classic engine.

    Replays every execution's shared tape under every registry
    predictor and runs ``run_global_execution`` on the same execution
    with an independent fresh spec, calling ``on_execution_end`` on
    both specs in the same order, and byte-diffs the per-execution
    results.  This is the direct DESIGN §10 contract check for each
    lane, at a finer grain than the application-level passes below.
    """
    fused_lines = []
    classic_lines = []
    for application in runner.applications:
        lanes = [
            (name, make_spec(name, config), make_spec(name, config))
            for name in KNOWN_PREDICTORS
        ]
        for execution, filtered in runner.iter_filtered(application):
            tape = build_replay_tape(execution, filtered, config)
            for name, spec_fused, spec_classic in lanes:
                prefix = (
                    f"{application}[{execution.execution_index}] × {name}: "
                )
                result = replay_execution(tape, spec_fused, config)
                fused_lines.append(prefix + describe_result(result))
                result = run_global_execution(
                    execution, filtered, spec_classic, config
                )
                classic_lines.append(prefix + describe_result(result))
            for _, spec_fused, spec_classic in lanes:
                spec_fused.on_execution_end()
                spec_classic.on_execution_end()
    return check(
        "per-execution lanes vs run_global_execution "
        "(all registry predictors)",
        fused_lines,
        classic_lines,
    )


def main() -> int:
    scale = float(os.environ.get("REPRO_EQUIV_SCALE", "0.25"))
    config = SimulationConfig()
    suite = build_suite(scale=scale)
    runner = ExperimentRunner(suite, config)
    job_counts = [1, 2] if fork_available() else [1]
    if len(job_counts) == 1:
        print("note: fork unavailable, pooled runs skipped", file=sys.stderr)

    ok = lane_pass(runner, config)

    def tp_timeout(value, cfg):
        return tp_spec(cfg, timeout=value, name=f"TP({value:g}s)")

    def ski_lambda(value, cfg):
        return ski_spec(cfg, lam=value)

    def qdpm_seed(value, cfg):
        return qdpm_spec(cfg, seed=value)

    # (label, fused side at a given worker count, per-cell reference
    # table); the reference does not depend on the worker count.
    passes = [
        ("TP timeout sweep",
         lambda jobs: sweep_table(
             sweep(runner, TIMEOUTS, make_spec=tp_timeout, jobs=jobs)),
         sweep_table(classic_sweep(runner, TIMEOUTS, tp_timeout))),
        ("PCAP family matrix",
         lambda jobs: matrix_table(runner.run_matrix(PCAP_FAMILY, jobs=jobs)),
         matrix_table(classic_matrix(runner, PCAP_FAMILY))),
        ("full registry matrix",
         lambda jobs: matrix_table(
             runner.run_matrix(KNOWN_PREDICTORS, jobs=jobs)),
         matrix_table(classic_matrix(runner, KNOWN_PREDICTORS))),
        ("ski-rental lambda sweep",
         lambda jobs: sweep_table(
             sweep(runner, SKI_LAMBDAS, make_spec=ski_lambda, jobs=jobs)),
         sweep_table(classic_sweep(runner, SKI_LAMBDAS, ski_lambda))),
        ("Q-DPM seed lanes",
         lambda jobs: sweep_table(
             sweep(runner, QDPM_SEEDS, make_spec=qdpm_seed, jobs=jobs)),
         sweep_table(classic_sweep(runner, QDPM_SEEDS, qdpm_seed))),
    ]
    for jobs in job_counts:
        for label, fused_side, classic_lines in passes:
            ok &= check(f"{label} (jobs={jobs})", fused_side(jobs),
                        classic_lines)
        ok &= adversarial_pass(runner, config, jobs)

    if not ok:
        print("fused equivalence gate FAILED", file=sys.stderr)
        return 1
    print("fused equivalence gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
