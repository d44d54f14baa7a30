"""The online DPM service (repro.serve).

The contracts under test:

* the wire protocol round-trips frames through any chunking, and
  rejects hostile length prefixes before buffering their bodies;
* a shard journal is crash-safe — fsynced before decisions release,
  each execution's wire rows written once to an append-only
  ``rows.bin``, a torn tail of either file truncated away, a missing
  payload or another format refused — and dedups ``(client,
  client_seq)`` retries idempotently;
* a shard worker's decisions and final table state are bit-identical
  to an offline :meth:`ExperimentRunner.run_global` replay of the same
  feed, including after a cold restart that recovers from the journal,
  and it replays untraced;
* a state directory whose journal refuses to load ends ``repro serve``
  in one ``error:`` line, exit 1, with no restart loop and no socket
  file left;
* the daemon end to end: concurrent clients get decisions equal to the
  offline replay, a SIGKILLed shard worker is restarted with its state
  recovered, a second daemon on a drained state directory recovers
  every decision and table, oversized executions are shed with a
  ``backpressure`` NACK, and malformed frames (rows off the grid or
  with an unknown code) are quarantined as ``*.corrupt``.
"""

from __future__ import annotations

import base64
import json
import os
import signal
import socket
import struct
import subprocess
import sys

import pytest

import repro
from repro.config import SimulationConfig, fork_available
from repro.errors import ServeError, ServeProtocolError
from repro.predictors.registry import make_spec
from repro.serve import protocol
from repro.serve.client import ServeClient, control_request
from repro.serve.harness import (
    _FiredSink,
    run_scenario,
    spawn_daemon,
    verify_equivalence,
)
from repro.serve.state import ShardJournal
from repro.serve.supervisor import ShardSupervisor
from repro.serve.worker import (
    ShardWorker,
    shard_of,
    table_snapshot,
)
from repro.sim.experiment import ExperimentRunner
from repro.sim.metrics import PredictionStats
from repro.traces.store import encode_column_rows, encode_event_rows
from repro.traces.trace import ApplicationTrace
from repro.workloads import build_suite


# -- protocol ---------------------------------------------------------

def test_frame_round_trip_survives_any_chunking():
    frames = [
        protocol.json_frame(protocol.HELLO, {"client": "c1"}),
        protocol.encode_frame(protocol.ROWS, bytes(range(66)) * 3),
        protocol.json_frame(protocol.EXEC_END, {}),
    ]
    wire = b"".join(frames)
    for chunk in (1, 3, 7, len(wire)):
        reader = protocol.FrameReader()
        seen = []
        for start in range(0, len(wire), chunk):
            reader.feed(wire[start:start + chunk])
            seen.extend(reader.frames())
        assert [f[0] for f in seen] == [
            protocol.HELLO, protocol.ROWS, protocol.EXEC_END,
        ]
        assert seen[1][1] == bytes(range(66)) * 3
        assert len(reader) == 0


def test_frame_reader_rejects_hostile_length_before_buffering():
    reader = protocol.FrameReader()
    reader.feed(struct.pack("!I", protocol.MAX_FRAME + 1))
    with pytest.raises(ServeProtocolError):
        list(reader.frames())
    reader = protocol.FrameReader()
    reader.feed(struct.pack("!I", 0))
    with pytest.raises(ServeProtocolError):
        list(reader.frames())


def test_encode_frame_rejects_oversized_payload():
    with pytest.raises(ServeProtocolError):
        protocol.encode_frame(protocol.ROWS, b"x" * protocol.MAX_FRAME)


def test_read_frame_distinguishes_clean_eof_from_torn_frame():
    a, b = socket.socketpair()
    with a, b:
        a.sendall(protocol.json_frame(protocol.BYE, {}))
        a.close()
        assert protocol.read_frame(b) == (protocol.BYE, b"{}")
        assert protocol.read_frame(b) is None  # clean EOF
    a, b = socket.socketpair()
    with a, b:
        frame = protocol.json_frame(protocol.DECISION, {"seq": 1})
        a.sendall(frame[:len(frame) - 3])  # cut mid-body
        a.close()
        with pytest.raises(ServeProtocolError):
            protocol.read_frame(b)


def test_shard_mapping_is_stable_and_in_range():
    for shards in (1, 2, 5):
        for app in ("mozilla", "xemacs", "mplayer"):
            shard = shard_of(app, shards)
            assert 0 <= shard < shards
            assert shard == shard_of(app, shards)


# -- journal ----------------------------------------------------------

def _execution(suite, application, index=0):
    return suite[application].executions[index]


@pytest.fixture(scope="module")
def tiny_suite():
    return build_suite(scale=0.05, applications=("mozilla", "xemacs"))


@pytest.fixture(scope="module")
def nedit_suite():
    """A suite whose executions shut the disk down: the tiny suite's
    never do, so their ``fired`` timelines are empty."""
    return build_suite(scale=0.1, applications=("nedit",))


def test_journal_records_dedup_and_compact_replay(tmp_path, tiny_suite):
    execution = _execution(tiny_suite, "mozilla")
    rows = encode_event_rows(execution.events)
    with ShardJournal(tmp_path / "shard-0",
                      provenance={"predictor": "PCAP"}) as journal:
        journal.record_execution(
            client="c1", client_seq=0, application="mozilla",
            execution_index=execution.execution_index,
            initial_pids=sorted(execution.initial_pids),
            rows=rows, decision={"seq": 0, "shutdowns": 3},
        )
        assert journal.decisions[("c1", 0)] == {"seq": 0, "shutdowns": 3}
        replayed = [exec_ for _, exec_ in journal.replay()]
    assert len(replayed) == 1
    assert replayed[0].events == list(execution.events)
    assert replayed[0].initial_pids == execution.initial_pids
    # A fresh load sees the same decision and rows.
    with ShardJournal(tmp_path / "shard-0") as reloaded:
        assert reloaded.decisions[("c1", 0)] == {"seq": 0, "shutdowns": 3}
        assert [e.events for _, e in reloaded.replay()] == \
            [list(execution.events)]


def test_journal_truncates_torn_tail_on_load(tmp_path, tiny_suite):
    execution = _execution(tiny_suite, "mozilla")
    shard_dir = tmp_path / "shard-0"
    with ShardJournal(shard_dir) as journal:
        journal.record_execution(
            client="c1", client_seq=0, application="mozilla",
            execution_index=execution.execution_index,
            initial_pids=sorted(execution.initial_pids),
            rows=encode_event_rows(execution.events),
            decision={"seq": 0},
        )
    path = shard_dir / "journal.jsonl"
    with open(path, "ab") as stream:
        stream.write(b'{"type": "execution", "app_seq')  # torn append
    with ShardJournal(shard_dir) as journal:
        assert journal.torn_bytes > 0
        assert len(journal.records) == 1
        assert journal.decisions[("c1", 0)] == {"seq": 0}
    # The torn bytes are gone from disk, not just skipped.
    with ShardJournal(shard_dir) as journal:
        assert journal.torn_bytes == 0


def test_journal_rejects_mid_stream_corruption(tmp_path):
    shard_dir = tmp_path / "shard-0"
    shard_dir.mkdir()
    (shard_dir / "journal.jsonl").write_text(
        'not json at all\n{"type": "provenance", "format": 1}\n'
    )
    with pytest.raises(ServeError, match="corrupt"):
        ShardJournal(shard_dir)


def _record(journal, execution, seq):
    """Journal ``execution`` as client ``c1``'s ``seq``; returns its
    wire payload."""
    rows = encode_column_rows(execution.columns)
    journal.record_execution(
        client="c1", client_seq=seq, application=execution.application,
        execution_index=execution.execution_index,
        initial_pids=sorted(execution.initial_pids),
        rows=rows, decision={"seq": seq},
    )
    return rows


def test_journal_writes_each_payload_once_to_rows_bin(tmp_path, tiny_suite):
    shard_dir = tmp_path / "shard-0"
    executions = (list(tiny_suite["mozilla"].executions[:3])
                  + list(tiny_suite["xemacs"].executions[:2]))
    with ShardJournal(shard_dir, provenance={"predictor": "PCAP"}) as journal:
        payloads = [_record(journal, execution, seq)
                    for seq, execution in enumerate(executions)]
    # rows.bin is the wire payloads end to end, and nothing else.
    rows_bin = (shard_dir / "rows.bin").read_bytes()
    assert len(rows_bin) == sum(len(payload) for payload in payloads)
    assert rows_bin == b"".join(payloads)
    # The journal points into it and holds no rows of its own.
    text = (shard_dir / "journal.jsonl").read_text()
    records = [json.loads(line) for line in text.splitlines()]
    assert records[0] == {"type": "provenance", "format": 2,
                          "predictor": "PCAP"}
    offsets = [sum(map(len, payloads[:i])) for i in range(len(payloads))]
    assert [(r["offset"], r["length"]) for r in records[1:]] == \
        list(zip(offsets, map(len, payloads)))
    assert all("rows" not in record for record in records)
    for payload in payloads:
        assert base64.b64encode(payload).decode("ascii")[:64] not in text
    with ShardJournal(shard_dir) as reloaded:
        assert [e for _, e in reloaded.replay()] == executions


def test_journal_files_are_append_only(tmp_path, tiny_suite):
    shard_dir = tmp_path / "shard-0"
    executions = tiny_suite["mozilla"].executions
    files = ("journal.jsonl", "rows.bin")
    with ShardJournal(shard_dir, provenance={"predictor": "PCAP"}) as journal:
        _record(journal, executions[0], 0)
    first = {name: (shard_dir / name).read_bytes() for name in files}
    # Many more appends than format 1's compaction interval, over two
    # reopens: neither file's first bytes ever change.
    for seqs in (range(1, 20), range(20, 40)):
        with ShardJournal(shard_dir,
                          provenance={"predictor": "PCAP"}) as journal:
            for seq in seqs:
                _record(journal, executions[seq % len(executions)], seq)
                for name in files:
                    data = (shard_dir / name).read_bytes()
                    assert data.startswith(first[name])
                    assert data != first[name]
    assert sorted(os.listdir(shard_dir)) == sorted(files)


def test_journal_truncates_orphan_rows_and_appends_after_last_record(
        tmp_path, tiny_suite):
    shard_dir = tmp_path / "shard-0"
    first, second = tiny_suite["mozilla"].executions[:2]
    with ShardJournal(shard_dir) as journal:
        kept = _record(journal, first, 0)
    # A crash after a payload's fsync but before its record's append
    # leaves bytes in rows.bin that no record points at.
    with open(shard_dir / "rows.bin", "ab") as stream:
        stream.write(encode_column_rows(second.columns)[:1000])
    with ShardJournal(shard_dir) as journal:
        assert journal.torn_bytes == 1000
        assert (shard_dir / "rows.bin").stat().st_size == len(kept)
        appended = _record(journal, second, 1)
        assert journal.records[-1]["offset"] == len(kept)
    assert (shard_dir / "rows.bin").read_bytes() == kept + appended
    with ShardJournal(shard_dir) as journal:
        assert journal.torn_bytes == 0
        assert [e for _, e in journal.replay()] == [first, second]


def test_journal_refuses_a_payload_past_the_end_of_rows_bin(
        tmp_path, tiny_suite):
    shard_dir = tmp_path / "shard-0"
    with ShardJournal(shard_dir) as journal:
        rows = _record(journal, tiny_suite["mozilla"].executions[0], 0)
    with open(shard_dir / "rows.bin", "r+b") as stream:
        stream.truncate(len(rows) - 1)
    with pytest.raises(ServeError, match="rows.bin holds"):
        ShardJournal(shard_dir)


@pytest.mark.parametrize("lines", [
    # As format 1 wrote them: a provenance header, then records whose
    # rows are inline base64 or point into a trace-store segment.
    [{"type": "provenance", "format": 1, "predictor": "PCAP"},
     {"type": "execution", "app_seq": 0, "application": "mozilla",
      "client": "c1", "client_seq": 0, "execution_index": 0,
      "initial_pids": [100], "rows": "", "decision": {"seq": 0}}],
    [{"type": "execution", "app_seq": 0, "application": "mozilla",
      "client": "c1", "client_seq": 0, "execution_index": 0,
      "initial_pids": [100], "segment": {"segment": 0, "pos": 0},
      "decision": {"seq": 0}}],
])
def test_journal_refuses_format_1_state(tmp_path, lines):
    shard_dir = tmp_path / "state" / "shard-0"
    shard_dir.mkdir(parents=True)
    (shard_dir / "journal.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines)
    )
    with pytest.raises(ServeError, match="format-1") as refused:
        ShardJournal(shard_dir, provenance={"predictor": "PCAP"})
    assert str(shard_dir) in str(refused.value)


def test_journal_rejects_provenance_drift(tmp_path):
    with ShardJournal(tmp_path / "s", provenance={"predictor": "PCAP"}):
        pass
    with pytest.raises(ServeError, match="different configuration"):
        ShardJournal(tmp_path / "s", provenance={"predictor": "TP"})


# -- worker -----------------------------------------------------------

def _feed_worker(worker, suite, application, client="c1"):
    decisions = []
    for execution in suite[application].executions:
        decisions.append(worker.process(
            client=client,
            client_seq=len(decisions),
            application=application,
            execution_index=execution.execution_index,
            initial_pids=sorted(execution.initial_pids),
            rows=encode_event_rows(execution.events),
        ))
    return decisions


def test_worker_matches_offline_run_global_bit_identically(
        tmp_path, tiny_suite, nedit_suite):
    config = SimulationConfig()
    worker = ShardWorker(0, tmp_path, predictor="PCAP", config=config)
    fired = 0
    for suite, application in ((tiny_suite, "mozilla"),
                               (nedit_suite, "nedit")):
        decisions = _feed_worker(worker, suite, application,
                                 client=application)

        runner = ExperimentRunner(
            {application: ApplicationTrace(
                application, list(suite[application].executions))},
            config=config,
        )
        sink = _FiredSink()
        spec = make_spec("PCAP", config)
        offline = runner.run_global(application, spec, tracer=sink)

        online_stats = PredictionStats.merged([
            PredictionStats.from_dict(d["stats"]) for d in decisions
        ])
        assert online_stats == offline.stats
        sums = {"busy": 0.0, "idle_short": 0.0, "idle_long": 0.0,
                "power_cycle": 0.0}
        for decision in decisions:
            for name in sums:
                sums[name] += decision["energy"][name]
        assert (sums["busy"] + sums["idle_short"] + sums["idle_long"]
                + sums["power_cycle"]) == offline.ledger.total
        assert sum(d["shutdowns"] for d in decisions) == offline.shutdowns
        assert [f for d in decisions for f in d["fired"]] == sink.fired
        assert worker.tables()[application] == table_snapshot(spec)
        fired += len(sink.fired)
    assert fired > 0
    worker.close()


def test_worker_dedups_retries_and_recovers_from_journal(
        tmp_path, tiny_suite):
    worker = ShardWorker(0, tmp_path, predictor="PCAP")
    decisions = _feed_worker(worker, tiny_suite, "xemacs")
    # A retry of an already-journaled seq must not re-run the engine:
    # the cached decision comes back, and table state does not move.
    before = worker.tables()
    execution = _execution(tiny_suite, "xemacs")
    replay = worker.process(
        client="c1", client_seq=0, application="xemacs",
        execution_index=execution.execution_index,
        initial_pids=sorted(execution.initial_pids),
        rows=encode_event_rows(execution.events),
    )
    assert replay == decisions[0]
    assert worker.tables() == before
    worker.close()

    # A cold restart replays the journal into bit-identical tables and
    # counters.
    recovered = ShardWorker(0, tmp_path, predictor="PCAP")
    assert recovered.recovered == len(decisions)
    assert recovered.tables() == worker.tables()
    assert recovered.stats() == worker.stats()
    recovered.close()


def test_worker_replays_untraced(tmp_path, tiny_suite, nedit_suite,
                                 monkeypatch):
    """Live processing and journal recovery hand the engine no tracer:
    each decision's ``fired`` timeline is the engine's own, one row per
    shutdown its stats count."""
    import repro.serve.worker as worker_module

    tracers = []
    replay = worker_module.run_global_execution

    def recording(*args, **kwargs):
        tracers.append(kwargs.get("tracer"))
        return replay(*args, **kwargs)

    monkeypatch.setattr(worker_module, "run_global_execution", recording)
    suites = (tiny_suite, nedit_suite)
    worker = ShardWorker(0, tmp_path, predictor="PCAP")
    decisions = [
        decision for suite in suites for application in sorted(suite)
        for decision in _feed_worker(worker, suite, application,
                                     client=application)
    ]
    worker.close()
    ShardWorker(0, tmp_path, predictor="PCAP").close()
    assert len(tracers) == 2 * len(decisions)
    assert tracers == [None] * len(tracers)
    fired = [len(decision["fired"]) for decision in decisions]
    assert fired == [
        PredictionStats.from_dict(decision["stats"]).shutdowns
        for decision in decisions
    ]
    assert sum(fired) > 0


# -- refused state directories ----------------------------------------

def _seed_refused_state(state_dir, refusal, tiny_suite) -> tuple:
    """Leave ``state_dir`` in a state a shard journal refuses; returns
    the extra ``repro serve`` arguments the refusal needs."""
    if refusal == "format-1":
        shard_dir = state_dir / "shard-0"
        shard_dir.mkdir(parents=True)
        (shard_dir / "journal.jsonl").write_text(json.dumps(
            {"type": "provenance", "format": 1, "predictor": "PCAP"}
        ) + "\n")
        return ()
    if refusal == "provenance-drift":
        for shard in (0, 1):
            ShardWorker(shard, state_dir, predictor="PCAP").close()
        return ("--predictor", "TP")
    worker = ShardWorker(0, state_dir, predictor="PCAP")
    _feed_worker(worker, tiny_suite, "mozilla")
    worker.close()
    shard_dir = state_dir / "shard-0"
    journal = shard_dir / "journal.jsonl"
    rows = shard_dir / "rows.bin"
    if refusal == "mid-stream-corruption":
        journal.write_bytes(b"not json\n" + journal.read_bytes())
    elif refusal == "rows-past-end":
        with open(rows, "r+b") as stream:
            stream.truncate(rows.stat().st_size - 1)
    else:  # rows that do not decode: row 0 gets an unknown type code
        with open(rows, "r+b") as stream:
            stream.write(b"\x07")
    return ()


@pytest.mark.slow
@pytest.mark.parametrize("refusal", [
    "format-1", "provenance-drift", "mid-stream-corruption",
    "rows-past-end", "rows-undecodable",
])
def test_refused_state_dir_ends_in_one_error_line(tmp_path, tiny_suite,
                                                  refusal):
    state_dir = tmp_path / "state"
    extra = _seed_refused_state(state_dir, refusal, tiny_suite)
    socket_path = str(tmp_path / "serve.sock")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--state-dir", str(state_dir), *extra],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("error: ")
    named = [shard for shard in (0, 1)
             if str(state_dir / f"shard-{shard}") in lines[0]]
    assert len(named) == 1, lines[0]
    if refusal != "provenance-drift":  # under drift both shards refuse
        assert named == [0]
    assert "Traceback" not in done.stdout
    assert not os.path.exists(socket_path)
    assert not os.path.exists(socket_path + ".ctl")


@pytest.mark.parametrize("use_fork", [
    pytest.param(True, marks=pytest.mark.skipif(
        not fork_available(), reason="needs fork")),
    False,
])
def test_supervisor_keeps_a_refusal_instead_of_restarting(tmp_path,
                                                          use_fork):
    state_dir = tmp_path / "state"
    shard_dir = state_dir / "shard-0"
    shard_dir.mkdir(parents=True)
    (shard_dir / "journal.jsonl").write_text(json.dumps(
        {"type": "provenance", "format": 1}
    ) + "\n")
    supervisor = ShardSupervisor(0, str(state_dir), use_fork=use_fork)
    if use_fork:
        assert supervisor.conn.poll(60.0)
        supervisor.on_readable()
    assert "format-1" in supervisor.refused
    assert str(shard_dir) in supervisor.refused
    assert supervisor.restarts == 0
    assert supervisor.pid is None and supervisor.conn is None
    # Nothing queued, no worker to stop, and no inline worker either.
    assert supervisor.submit({"client": "c1", "client_seq": 0})
    supervisor.drain()
    assert supervisor.inline is None


# -- daemon end to end ------------------------------------------------

@pytest.mark.slow
def test_daemon_decisions_match_offline_replay(tmp_path):
    scenario = run_scenario(
        socket_path=str(tmp_path / "serve.sock"),
        state_dir=str(tmp_path / "state"),
        clients=3, scale=0.05,
        applications=("mozilla", "xemacs"),
        stall_timeout=10.0,
    )
    assert scenario.client_errors == []
    assert scenario.exit_code == 0
    assert verify_equivalence(scenario) == []


@pytest.mark.slow
def test_daemon_survives_sigkilled_shard_worker(tmp_path):
    scenario = run_scenario(
        socket_path=str(tmp_path / "serve.sock"),
        state_dir=str(tmp_path / "state"),
        clients=2, scale=0.05,
        applications=("mozilla", "xemacs"),
        stall_timeout=10.0,
        kill_worker_after=1,
    )
    assert scenario.client_errors == []
    assert scenario.killed_pid is not None
    assert scenario.exit_code == 0
    kinds = {i.get("kind") for i in scenario.health.get("incidents", [])}
    assert "worker-restart" in kinds
    assert verify_equivalence(scenario) == []


def _raw_conn(socket_path, client):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    sock.connect(socket_path)
    sock.sendall(protocol.json_frame(protocol.HELLO, {"client": client}))
    ftype, payload = protocol.read_frame(sock)
    assert ftype == protocol.HELLO_OK
    assert protocol.parse_json(payload)["row_bytes"] == 66
    return sock


@pytest.mark.slow
def test_daemon_restart_recovers_a_drained_state_dir(tmp_path, tiny_suite):
    socket_path = str(tmp_path / "serve.sock")
    control = socket_path + ".ctl"
    state_dir = str(tmp_path / "state")
    executions = [execution for application in sorted(tiny_suite)
                  for execution in tiny_suite[application].executions]
    with spawn_daemon(socket_path=socket_path, state_dir=state_dir) as first:
        try:
            with ServeClient(socket_path, "c1") as client:
                decisions = [client.submit_execution(execution)
                             for execution in executions]
            tables = control_request(control, "tables")
        finally:
            first.send_signal(signal.SIGTERM)
            first.wait(timeout=60.0)
    assert first.returncode == 0
    assert len(decisions) == len(executions)

    # A second daemon on the same directory replays both shard journals.
    with spawn_daemon(socket_path=socket_path, state_dir=state_dir) as second:
        try:
            health = control_request(control, "health")
            assert len(health["shards"]) == 2
            assert sum(shard["recovered"]
                       for shard in health["shards"]) == len(decisions)
            assert control_request(control, "tables") == tables
        finally:
            second.send_signal(signal.SIGTERM)
            second.wait(timeout=60.0)
    assert second.returncode == 0


@pytest.mark.slow
def test_daemon_backpressure_and_quarantine(tmp_path):
    socket_path = str(tmp_path / "serve.sock")
    state_dir = str(tmp_path / "state")
    daemon = spawn_daemon(
        socket_path=socket_path, state_dir=state_dir, shards=1,
        extra_args=("--max-pending-bytes", "660"),
    )
    try:
        # An execution assembling more than max-pending-bytes of rows
        # is shed with a typed backpressure NACK.
        with _raw_conn(socket_path, "greedy") as sock:
            sock.sendall(protocol.json_frame(protocol.EXEC_BEGIN, {
                "application": "mozilla", "execution": 0, "seq": 0,
                "initial_pids": [100],
            }))
            sock.sendall(protocol.encode_frame(protocol.ROWS,
                                               b"\x00" * 66 * 11))
            ftype, payload = protocol.read_frame(sock)
            assert ftype == protocol.NACK
            assert protocol.parse_json(payload)["code"] == \
                protocol.NACK_BACKPRESSURE

        # A row payload off the 66-byte grid is NACKed malformed and
        # the bytes land in quarantine as *.corrupt.
        with _raw_conn(socket_path, "mangled") as sock:
            sock.sendall(protocol.json_frame(protocol.EXEC_BEGIN, {
                "application": "mozilla", "execution": 0, "seq": 0,
                "initial_pids": [100],
            }))
            sock.sendall(protocol.encode_frame(protocol.ROWS, b"\x00" * 65))
            sock.sendall(protocol.json_frame(protocol.EXEC_END, {}))
            ftype, payload = protocol.read_frame(sock)
            assert ftype == protocol.NACK
            assert protocol.parse_json(payload)["code"] == \
                protocol.NACK_MALFORMED

        # So is a row on the grid whose event type code is unknown: the
        # daemon runs the store's check before any shard sees it.
        bad = bytearray(66)
        bad[0] = 7  # row 0's etype, the first column
        with _raw_conn(socket_path, "badcode") as sock:
            sock.sendall(protocol.json_frame(protocol.EXEC_BEGIN, {
                "application": "mozilla", "execution": 0, "seq": 0,
                "initial_pids": [100],
            }))
            sock.sendall(protocol.encode_frame(protocol.ROWS, bytes(bad)))
            sock.sendall(protocol.json_frame(protocol.EXEC_END, {}))
            ftype, payload = protocol.read_frame(sock)
            assert ftype == protocol.NACK
            nack = protocol.parse_json(payload)
            assert nack["code"] == protocol.NACK_MALFORMED
            assert "unknown event type code 7" in nack["detail"]
        corrupt = [
            name for name in os.listdir(os.path.join(state_dir,
                                                     "quarantine"))
            if name.endswith(".corrupt")
        ]
        assert any(name.startswith("mangled-") for name in corrupt)
        assert any(name.startswith("badcode-") for name in corrupt)
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60.0)
    assert daemon.returncode == 0
    # The shard journalled none of them.
    journal = os.path.join(state_dir, "shard-0", "journal.jsonl")
    with open(journal, encoding="utf-8") as stream:
        assert [json.loads(line)["type"] for line in stream] == \
            ["provenance"]
