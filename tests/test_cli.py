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


def test_unknown_table_number(capsys):
    code, _, err = run_cli(capsys, "table", "9", "--scale", "0.1")
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


def test_unknown_figure(capsys):
    code, _, err = run_cli(capsys, "figure", "3", "--scale", "0.1")
    assert code == 2
    assert "figures 6-10" in err


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
