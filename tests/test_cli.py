"""Command-line interface."""

import pytest

from repro.cli import main

STRACE_SAMPLE = """\
100 1000.000000 [00007f0000001000] openat(AT_FDCWD, "/data/file", O_RDONLY) = 3
100 1000.010000 [00007f0000001010] read(3, "x", 4096) = 4096
100 1030.000000 [00007f0000001010] read(3, "x", 4096) = 4096
100 1030.100000 +++ exited with 0 +++
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table2_fast_path(capsys):
    code, out, _ = run_cli(capsys, "table", "2")
    assert code == 0
    assert "Breakeven" in out


def test_table1_small_scale(capsys):
    code, out, _ = run_cli(capsys, "table", "1", "--scale", "0.1")
    assert code == 0
    assert "mozilla" in out


def _refuse_suite(*args, **kwargs):
    raise AssertionError("built a suite for a number the paper lacks")


def test_unknown_table_number(capsys, monkeypatch):
    # Rejected before any trace is generated.
    monkeypatch.setattr("repro.cli.build_suite", _refuse_suite)
    for number in ("9", "4"):
        code, _, err = run_cli(capsys, "table", number)
        assert code == 2
        assert "tables 1-3" in err


def test_figure7(capsys):
    code, out, _ = run_cli(capsys, "figure", "7", "--scale", "0.1")
    assert code == 0
    assert "AVERAGE" in out


def test_progress_reports_cells_at_jobs_one(capsys):
    code, out, err = run_cli(capsys, "figure", "7", "--scale", "0.1",
                             "--jobs", "1", "--progress")
    assert code == 0
    assert "AVERAGE" in out
    # Figure 7 compares several predictors, so it runs one fused cell
    # per application; each reports in-process, as a pooled run would.
    lines = [line for line in err.splitlines() if "×" in line]
    assert len(lines) == 6
    assert lines[-1].strip().startswith("[6/6]")


def test_figure7_chart_mode(capsys):
    code, out, _ = run_cli(capsys, "figure", "7", "--scale", "0.1",
                           "--chart")
    assert code == 0
    assert "|" in out  # the 100% marker of the stacked bars


def test_figure8(capsys):
    code, out, _ = run_cli(capsys, "figure", "8", "--scale", "0.1")
    assert code == 0
    assert "savings" in out


def test_unknown_figure(capsys, monkeypatch):
    monkeypatch.setattr("repro.cli.build_suite", _refuse_suite)
    for number in ("3", "11"):
        code, _, err = run_cli(capsys, "figure", number)
        assert code == 2
        assert f"no figure {number}; the paper has figures 6-10" in err


def test_simulate(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--app", "nedit", "--predictor", "PCAP",
        "--scale", "0.2",
    )
    assert code == 0
    assert "coverage" in out
    assert "prediction table" in out


def test_generate_and_inspect(capsys, tmp_path):
    out_file = tmp_path / "nedit.jsonl"
    code, out, _ = run_cli(
        capsys, "generate", "--app", "nedit", "--out", str(out_file),
        "--scale", "0.2",
    )
    assert code == 0
    assert out_file.exists()
    code, out, _ = run_cli(capsys, "inspect", str(out_file))
    assert code == 0
    assert "application      : nedit" in out
    assert "executions" in out


def test_import_strace(capsys, tmp_path):
    source = tmp_path / "trace.txt"
    source.write_text(STRACE_SAMPLE)
    converted = tmp_path / "converted.jsonl"
    code, out, _ = run_cli(
        capsys, "import-strace", str(source), "--app", "demo",
        "--out", str(converted), "--predictor", "TP",
    )
    assert code == 0
    assert "imported 3 I/O events" in out
    assert converted.exists()
    assert "TP: coverage" in out


def test_bad_arguments_exit_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--app", "notanapp"])


def test_report_to_file(capsys, tmp_path):
    out = tmp_path / "report.md"
    code, stdout, _ = run_cli(
        capsys, "report", "--scale", "0.1", "--out", str(out)
    )
    assert code == 0
    text = out.read_text()
    assert "# Reproduction report" in text
    assert "shape checks passed" in text
    assert "Figure 7" in text


def test_user_errors_are_one_line_not_tracebacks(capsys, tmp_path):
    junk = tmp_path / "junk.txt"
    junk.write_text("not a trace\n")
    code, _, err = run_cli(capsys, "inspect", str(junk))
    assert code == 1
    assert "error:" in err and "Traceback" not in err

    code, _, err = run_cli(capsys, "inspect", str(tmp_path / "missing.jsonl"))
    assert code == 1
    assert "error:" in err

    code, _, err = run_cli(capsys, "import-strace", str(junk))
    assert code == 1
    assert "no parseable strace lines" in err

    code, _, err = run_cli(capsys, "table", "1", "--scale", "0")
    assert code == 1
    assert "scale must be positive" in err


def test_trace_subcommand(capsys, tmp_path):
    out_file = tmp_path / "timeline.jsonl"
    code, out, _ = run_cli(
        capsys, "trace", "--app", "nedit", "--predictor", "PCAP",
        "--scale", "0.2", "--out", str(out_file), "--limit", "10",
    )
    assert code == 0
    assert "shutdown-fired events" in out
    assert "(OK)" in out
    assert out_file.exists()

    from repro.sim.tracing import read_jsonl

    with out_file.open() as stream:
        events = read_jsonl(stream)
    assert events
    fired = sum(1 for e in events if e.kind == "shutdown-fired")
    assert f"shutdown-fired events {fired}" in out


def test_simulate_trace_out(capsys, tmp_path):
    out_file = tmp_path / "sim-trace.jsonl"
    code, out, _ = run_cli(
        capsys, "simulate", "--app", "nedit", "--predictor", "PCAP",
        "--scale", "0.2", "--trace-out", str(out_file),
    )
    assert code == 0
    assert out_file.exists()
    assert out_file.read_text().strip()


# ---------------------------------------------------------------------------
# The resilient front end: repro run / repro faults
# ---------------------------------------------------------------------------


def test_run_subcommand_with_checkpoint_and_resume(capsys, tmp_path):
    ckpt = str(tmp_path / "run.ckpt")
    code, out, _ = run_cli(
        capsys, "run", "--scale", "0.1", "--predictor", "TP",
        "--app", "mozilla", "--app", "nedit", "--checkpoint", ckpt,
    )
    assert code == 0
    assert "2 cells — 2 ok (0 resumed from checkpoint)" in out
    assert "mozilla" in out and "nedit" in out

    code, out, _ = run_cli(
        capsys, "run", "--scale", "0.1", "--predictor", "TP",
        "--app", "mozilla", "--app", "nedit", "--resume", ckpt,
    )
    assert code == 0
    assert "2 ok (2 resumed from checkpoint)" in out


def test_run_subcommand_reports_terminal_failures(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    code, out, _ = run_cli(
        capsys, "run", "--scale", "0.1", "--predictor", "TP",
        "--app", "mozilla", "--app", "nedit", "--retries", "1",
        "--fault-plan", "worker.fail,cell=0,attempts=99",
    )
    assert code == 1
    assert "1 failed" in out
    assert "FAILED after 2 attempt(s)" in out
    # The healthy cell still reported a result.
    assert "nedit" in out


def test_run_subcommand_recovers_transient_fault(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--scale", "0.1", "--predictor", "TP",
        "--app", "mozilla",
        "--fault-plan", "worker.fail,cell=0,attempts=1",
    )
    assert code == 0
    assert "recovered after 1 failed attempt(s)" in out
    assert "fault(s) fired" in out


def test_fault_plan_env_var_reaches_commands(capsys, monkeypatch):
    monkeypatch.setenv(
        "REPRO_FAULT_PLAN", "worker.fail,cell=0,attempts=99"
    )
    code, out, _ = run_cli(
        capsys, "run", "--scale", "0.1", "--predictor", "TP",
        "--app", "mozilla", "--retries", "0",
    )
    assert code == 1
    assert "FAILED after 1 attempt(s)" in out


def test_malformed_fault_plan_is_a_clean_error(capsys):
    code, _, err = run_cli(
        capsys, "run", "--scale", "0.1", "--app", "mozilla",
        "--fault-plan", "bogus.site",
    )
    assert code == 1
    assert "unknown fault site" in err


def test_faults_subcommand_in_process(capsys, monkeypatch):
    # Force the in-process path: deterministic and pool-free, so the
    # canned crash becomes an injected failure.
    code, out, _ = run_cli(
        capsys, "faults", "--scale", "0.1", "--jobs", "1",
        "--cell-timeout", "3",
    )
    assert code == 0
    assert "chaos verdict: OK" in out
    assert "[PASS] healthy cells bit-identical" in out
    assert "[PASS] every planned worker fault fired" in out
    assert "FAILED after 2 attempt(s)" in out


def test_faults_plan_without_worker_faults_expects_no_retries(capsys):
    # A cache-only plan causes no failed attempt, so its verdict must not
    # require one.
    code, out, _ = run_cli(
        capsys, "faults", "--scale", "0.1", "--jobs", "1", "--no-serve",
        "--plan", "cache.torn-write,at=1;cache.corrupt-read,at=1",
    )
    assert code == 0, out
    assert "[PASS] no retries expected (0 failed attempt(s))" in out
    assert "chaos verdict: OK" in out


#: ``repro reproduce --scale 0.2`` stdout SHA-256, recorded before the
#: figures shared one global matrix; it must not change in any mode.
REPRODUCE_SHA256_SCALE_02 = (
    "ae46e46faeabe4dc189b61ed01a4ad87045b6ddfacde0e3c170e08812cebfcd1"
)


def test_reproduce_plans_one_tape_and_one_replay_per_lane(
    capsys, tmp_path, monkeypatch
):
    """``repro reproduce`` prints the same bytes with no cache and with
    a cold and a warm ``--cache-dir``.  A cold run builds each
    execution's tape once and replays it once per distinct global
    predictor; a warm run serves every global lane, every Fig 6 local
    cell and every Table 1 row from the cache, so it replays nothing,
    counts no gap and reads no filter result."""
    import hashlib

    import repro.analysis.tables as tables
    import repro.sim.experiment as experiment
    import repro.sim.fused as fused
    from repro.analysis import GLOBAL_PREDICTORS
    from repro.config import SimulationConfig
    from repro.sim.artifact_cache import (
        ArtifactCache,
        filter_key,
        trace_fingerprint,
    )
    from repro.workloads import build_suite

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    suite = build_suite(scale=0.2)
    filter_keys = {
        filter_key(trace_fingerprint(trace), execution.execution_index,
                   SimulationConfig().cache)
        for trace in suite.values()
        for execution in trace
    }
    calls = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    get = ArtifactCache.get

    def counting_get(self, key):
        calls["filter_get"] += key in filter_keys
        return get(self, key)

    monkeypatch.setattr(
        fused, "build_replay_tape", counting("tape", fused.build_replay_tape)
    )
    monkeypatch.setattr(
        fused, "replay_execution",
        counting("replay", fused.replay_execution),
    )
    monkeypatch.setattr(
        experiment, "evaluate_local_stream",
        counting("local", experiment.evaluate_local_stream),
    )
    monkeypatch.setattr(
        tables, "stream_gaps", counting("gaps", tables.stream_gaps)
    )
    monkeypatch.setattr(ArtifactCache, "get", counting_get)
    executions = len(filter_keys)
    cache_dir = str(tmp_path / "cache")
    runs = {}
    for name, argv in (
        ("uncached", ()),
        ("cold", ("--cache-dir", cache_dir)),
        ("warm", ("--cache-dir", cache_dir)),
    ):
        calls.update(tape=0, replay=0, local=0, gaps=0, filter_get=0)
        code, out, _ = run_cli(capsys, "reproduce", "--scale", "0.2", *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == REPRODUCE_SHA256_SCALE_02, name
        runs[name] = dict(calls)
    uncached = runs["uncached"]
    assert uncached["tape"] == executions
    assert uncached["replay"] == executions * len(GLOBAL_PREDICTORS)
    assert uncached["local"] > 0 and uncached["gaps"] > 0
    assert uncached["filter_get"] == 0
    # A cold run reads each filter result once: Table 1 fills the filter
    # memo that the local and global matrices then read.
    assert runs["cold"] == {**uncached, "filter_get": executions}
    assert runs["warm"] == dict.fromkeys(uncached, 0)


def test_reproduce_reads_fig6_and_table1_filled_by_their_commands(
    capsys, tmp_path, monkeypatch
):
    """A cache filled only by ``repro figure 6`` and ``repro table 1``
    serves ``reproduce`` every local cell and Table 1 row: it evaluates
    no local stream and counts no gap, and prints the same bytes."""
    import hashlib

    import repro.analysis.tables as tables
    import repro.sim.experiment as experiment

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    cache = ("--scale", "0.2", "--cache-dir", str(tmp_path / "cache"))
    for argv in (("figure", "6"), ("table", "1")):
        code, _, _ = run_cli(capsys, *argv, *cache)
        assert code == 0
    calls = []
    monkeypatch.setattr(
        experiment, "evaluate_local_stream",
        lambda *a, **k: calls.append("local"),
    )
    monkeypatch.setattr(
        tables, "stream_gaps", lambda *a, **k: calls.append("gaps")
    )
    code, out, _ = run_cli(capsys, "reproduce", *cache)
    assert code == 0
    assert calls == []
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == REPRODUCE_SHA256_SCALE_02


def test_figure8_and_run_read_the_lanes_reproduce_recorded(
    capsys, tmp_path, monkeypatch
):
    """A cache filled by ``repro reproduce`` serves ``repro figure 8`` and
    a two-predictor ``repro run`` every lane: neither filters an
    execution nor runs a fused cell, and each prints what it prints
    uncached (``run``'s ledger line counts the served cells)."""
    import repro.sim.experiment as experiment
    import repro.sim.fused as fused

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    commands = (
        ("figure", "8"),
        ("run", "--predictor", "PCAP", "--predictor", "TP"),
    )
    uncached = {}
    for argv in commands:
        code, uncached[argv], _ = run_cli(capsys, *argv, "--scale", "0.2")
        assert code == 0
    cache = ("--scale", "0.2", "--cache-dir", str(tmp_path / "cache"))
    code, _, _ = run_cli(capsys, "reproduce", *cache)
    assert code == 0
    calls = []
    monkeypatch.setattr(
        experiment, "filter_execution", lambda *a, **k: calls.append("filter")
    )
    monkeypatch.setattr(
        fused, "run_fused_application", lambda *a, **k: calls.append("fused")
    )
    code, out, _ = run_cli(capsys, "figure", "8", *cache)
    assert code == 0
    assert out == uncached[commands[0]]
    code, out, _ = run_cli(capsys, *commands[1], *cache)
    assert code == 0
    results, ledger = out.split("\n\n")
    assert results == uncached[commands[1]].split("\n\n")[0]
    assert "12 served from the artifact cache" in ledger
    assert calls == []


def test_reproduce_replays_only_the_lanes_figure8_lacks(
    capsys, tmp_path, monkeypatch
):
    """On a cache only ``repro figure 8`` filled, ``reproduce`` runs one
    fused cell per application over the five global lanes Fig 8 lacks,
    and prints the same bytes."""
    import hashlib

    import repro.sim.fused as fused
    from repro.analysis import FIG8_PREDICTORS, GLOBAL_PREDICTORS
    from repro.workloads.suite import APPLICATIONS

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    cache = ("--scale", "0.2", "--cache-dir", str(tmp_path / "cache"))
    code, _, _ = run_cli(capsys, "figure", "8", *cache)
    assert code == 0
    lanes = []
    original = fused.run_fused_application

    def counting(runner, application, specs):
        lanes.append((application, len(specs)))
        return original(runner, application, specs)

    monkeypatch.setattr(fused, "run_fused_application", counting)
    code, out, _ = run_cli(capsys, "reproduce", *cache)
    assert code == 0
    missing = len(GLOBAL_PREDICTORS) - len(FIG8_PREDICTORS)
    assert missing == 5
    assert sorted(lanes) == sorted((app, missing) for app in APPLICATIONS)
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == REPRODUCE_SHA256_SCALE_02


def test_store_with_unknown_kind_code_is_one_error_line(capsys, tmp_path):
    """A store whose column sizes are right but whose I/O row carries an
    unknown access kind code fails with one ``error:`` line."""
    import numpy as np

    store = tmp_path / "store"
    code, _, _ = run_cli(
        capsys, "trace", "pack", "--scale", "0.1", "--app", "nedit",
        "--out", str(store),
    )
    assert code == 0
    etype = np.fromfile(store / "columns" / "etype.bin", dtype=np.uint8)
    kind = np.fromfile(store / "columns" / "kind.bin", dtype=np.uint8)
    row = int(np.argmax(etype == 0))
    kind[row] = 200
    kind.tofile(store / "columns" / "kind.bin")
    code, out, err = run_cli(capsys, "table", "1", "--store", str(store))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"row {row}: unknown access kind code 200" in err
    assert "Traceback" not in err and out == ""


def _edit_row(records, row, **values):
    """``records`` with I/O row ``row`` of the first execution edited
    (its line follows the header)."""
    records = [dict(record) for record in records]
    records[row + 1].update(values)
    return records


@pytest.mark.parametrize(("edit", "problem"), [
    (lambda records: _edit_row(records, 3, t=records[5]["t"] + 5.0),
     "nedit#0: events out of order (row 4,"),
    (lambda records: _edit_row(records, 5, pid=4242),
     "nedit#0: I/O from dead/unknown pid (row 5, pid 4242,"),
], ids=["out-of-order", "unknown-pid"])
def test_pack_from_jsonl_rejects_invalid_execution(capsys, tmp_path, edit,
                                                   problem):
    """``trace pack --from`` validates each execution before it packs
    it: an invalid one is one ``error:`` line naming the execution and
    the row, and no store is published."""
    import json

    dump = tmp_path / "nedit.jsonl"
    assert main(["generate", "--app", "nedit", "--scale", "0.1",
                 "--out", str(dump)]) == 0
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    assert records[0]["type"] == "header"
    assert all(record["type"] == "io" for record in records[1:7])
    code, _, _ = run_cli(capsys, "trace", "pack", "--from", str(dump),
                         "--out", str(tmp_path / "clean.store"))
    assert code == 0
    assert (tmp_path / "clean.store" / "manifest.json").is_file()

    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(json.dumps(record) + "\n"
                              for record in edit(records)))
    store = tmp_path / "edited.store"
    code, out, err = run_cli(capsys, "trace", "pack", "--from", str(edited),
                             "--out", str(store))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert problem in err
    assert "Traceback" not in err and out == ""
    assert not (store / "manifest.json").exists()


@pytest.fixture(scope="module")
def nedit_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("label") / "store"
    assert main(["trace", "pack", "--scale", "0.1", "--app", "nedit",
                 "--out", str(store)]) == 0
    return str(store)


@pytest.mark.parametrize("argv", [
    ("run", "--predictor", "TP", "--app", "nedit"),
    ("figure", "7"),
    ("simulate", "--app", "nedit", "--predictor", "TP"),
    ("trace", "--app", "nedit", "--predictor", "TP", "--limit", "1"),
    ("report",),
    ("fleet", "--devices", "2", "--predictor", "TP", "--app", "nedit"),
])
def test_store_backed_commands_name_the_store(capsys, nedit_store, argv):
    """A store fixes the workload, so ``--scale`` (default 0.5) is ignored
    and must not be printed as the scale the command ran at."""
    code, out, _ = run_cli(capsys, *argv, "--store", nedit_store)
    assert code == 0
    assert f"store {nedit_store}" in out
    assert "scale 0.5" not in out


# -- start-up: what a fresh interpreter imports ---------------------------

#: Runs ``repro.cli.main`` on its arguments in a fresh interpreter, then
#: reports on stderr whether NumPy was ever imported.
_MAIN_REPORTING_NUMPY = """\
import sys
from repro.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(f"numpy imported: {'numpy' in sys.modules}", file=sys.stderr)
sys.exit(code)
"""


def _fresh_cli(*argv, cwd):
    """Run the CLI in a fresh interpreter; returns ``(stdout, imported
    NumPy)``."""
    from tests.helpers import run_python

    done = run_python("-c", _MAIN_REPORTING_NUMPY, *argv, cwd=cwd)
    report = done.stderr.splitlines()[-1]
    assert report.startswith("numpy imported: "), done.stderr
    return done.stdout, report == "numpy imported: True"


def test_warm_reproduce_never_imports_numpy(tmp_path):
    """A warm ``reproduce`` serves every cell and Table 1 row from the
    artifact cache, so it touches no column data and must not import
    NumPy: not plain, not at ``--jobs 2``, and not off a packed store
    whose content the generated run cached.  Each prints the cold run's
    bytes."""
    cache = str(tmp_path / "cache")
    store = str(tmp_path / "store")
    scale = ("--scale", "0.1")
    cold, imported = _fresh_cli("reproduce", *scale, "--cache-dir", cache,
                                cwd=tmp_path)
    assert imported  # a cold run generates, filters and replays
    _fresh_cli("trace", "pack", *scale, "--out", store, cwd=tmp_path)
    for argv in (
        ("reproduce", *scale, "--cache-dir", cache),
        ("reproduce", *scale, "--cache-dir", cache, "--jobs", "2"),
        ("reproduce", "--store", store, "--cache-dir", cache),
    ):
        out, imported = _fresh_cli(*argv, cwd=tmp_path)
        assert out == cold, argv
        assert not imported, argv
