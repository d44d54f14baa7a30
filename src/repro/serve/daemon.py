"""The ``repro serve`` daemon: sockets, backpressure, supervision glue.

A single-threaded :mod:`selectors` event loop multiplexes:

* the **listen socket** (Unix path or TCP) accepting client feeds
  speaking the frame protocol of :mod:`repro.serve.protocol`;
* the **control socket** (``<path>.ctl`` / TCP port + 1) speaking
  line-delimited JSON — ``{"cmd": "health" | "tables" | "ping" |
  "drain"}`` — for health checks, table snapshots, and operator drains;
* one **pipe per shard supervisor** carrying decisions back from the
  worker processes;
* a **signal socketpair**: SIGTERM/SIGINT write a byte, the loop sees
  it and starts a graceful drain (stop accepting, NACK ``draining`` to
  new work, finish every queued execution, drain the workers, exit 0).

Robustness behaviors, all deterministic and chaos-testable:

* **Backpressure** — a client assembling more than
  ``max_pending_bytes`` of row payload, or targeting a shard whose
  queue already holds ``max_queue`` jobs, is shed with a typed NACK
  (``backpressure`` / ``overloaded``) and disconnected; it can
  reconnect and resubmit later (idempotently).
* **Malformed frames** — an undecodable payload (a header that is
  not JSON, rows off the row grid or with a type or kind code the
  store does not know; the ``serve.frame_truncate`` site truncates one
  deliberately) is **quarantined** before it reaches a shard: the raw
  bytes are written to ``state_dir/quarantine/<client>-<n>.corrupt``
  (the store's ``*.corrupt`` convention) and the client gets a
  ``malformed`` NACK.
* **Connection drops** — the ``serve.conn_drop`` site severs a chosen
  client's connection mid-stream; the client reconnects and resubmits,
  and journal dedup in the worker makes the redelivery exact.
* Worker crashes and stalls are the supervisor's department
  (:mod:`repro.serve.supervisor`); the daemon only reports the
  incidents on the health endpoint.
* **Refused state** — a shard whose journal refuses to load (another
  format, provenance drift, corruption) ends the daemon: the loop
  raises that shard's :class:`~repro.errors.ServeError`, the drain
  stops the other shards and unlinks the sockets, and ``repro serve``
  prints the one ``error:`` line and exits 1.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import time
from pathlib import Path
from typing import Optional

from repro import faults
from repro.config import SimulationConfig
from repro.errors import ServeError, ServeProtocolError, TraceStoreError
from repro.sim.metrics import PredictionStats
from repro.sim.resilience import ResiliencePolicy
from repro.serve import protocol
from repro.serve.supervisor import ShardSupervisor
from repro.serve.worker import shard_of
from repro.traces.store import EVENT_ROW_BYTES, decode_column_rows

_ACCEPT_BACKLOG = 64
_RECV_SIZE = 65536


class _ClientConn:
    """Per-connection state of one feed client."""

    __slots__ = (
        "sock", "reader", "client_id", "pending", "pending_bytes",
        "outbox", "closing",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = protocol.FrameReader()
        self.client_id: Optional[str] = None
        #: Execution under assembly: header dict plus row chunks.
        self.pending: Optional[dict] = None
        self.pending_bytes = 0
        self.outbox = bytearray()
        self.closing = False


class ServeDaemon:
    """The online DPM service (see module docstring)."""

    def __init__(
        self,
        *,
        socket_path: Optional[str] = None,
        tcp: Optional[tuple[str, int]] = None,
        state_dir: str,
        predictor: str = "PCAP",
        config: Optional[SimulationConfig] = None,
        shards: int = 2,
        stall_timeout: float = 30.0,
        max_pending_bytes: int = 8 * 1024 * 1024,
        max_queue: int = 64,
        policy: Optional[ResiliencePolicy] = None,
    ) -> None:
        if (socket_path is None) == (tcp is None):
            raise ServeError("serve needs exactly one of socket/tcp")
        if shards < 1:
            raise ServeError("shards must be at least 1")
        self.state_dir = Path(state_dir)
        (self.state_dir / "quarantine").mkdir(parents=True, exist_ok=True)
        self.predictor = predictor
        self.config = config or SimulationConfig()
        self.max_pending_bytes = max_pending_bytes
        self.draining = False
        self.incidents: list[dict] = []
        self._quarantined = 0
        self._decided = 0
        self._selector = selectors.DefaultSelector()
        self._clients: dict[socket.socket, _ClientConn] = {}
        #: ``(client_id, seq) -> socket`` awaiting a decision.
        self._waiting: dict[tuple[str, int], socket.socket] = {}

        self._is_unix = socket_path is not None
        if socket_path is not None:
            self._listen = _unix_listener(socket_path)
            self._control = _unix_listener(socket_path + ".ctl")
            self.address = socket_path
            self.control_address = socket_path + ".ctl"
        else:
            host, port = tcp
            self._listen = _tcp_listener(host, port)
            port = self._listen.getsockname()[1]
            self._control = _tcp_listener(host, port + 1)
            self.address = f"{host}:{port}"
            self.control_address = f"{host}:{port + 1}"

        # The shard workers filter and replay in NumPy: import it once
        # here, before they fork, instead of once per worker start
        # (DESIGN §10, "Start-up").
        import numpy  # noqa: F401

        self.supervisors = [
            ShardSupervisor(
                shard, str(self.state_dir),
                predictor=predictor, config=self.config, policy=policy,
                stall_timeout=stall_timeout, max_queue=max_queue,
            )
            for shard in range(shards)
        ]
        for supervisor in self.supervisors:
            supervisor.decision_sink = self._on_decision
            supervisor.incident_sink = self._on_incident

        self._signal_rx, self._signal_tx = socket.socketpair()
        self._signal_rx.setblocking(False)
        self._old_handlers = {}
        #: ``shard_id -> (fd, restarts)`` currently registered with the
        #: selector.  The fd is kept so a dead worker's pipe can be
        #: unregistered *by number* after the supervisor already closed
        #: it (a closed multiprocessing Connection raises OSError from
        #: ``fileno()``); the restart count is part of the key because a
        #: restarted worker's new pipe can land on the *same* fd number
        #: — same fd, different file description — and the epoll
        #: registration must be refreshed anyway.
        self._shard_reg: dict[int, tuple[int, int]] = {}

    # -- incidents & decisions ----------------------------------------
    def _on_incident(self, incident: dict) -> None:
        self.incidents.append(incident)

    def _on_decision(self, client_id: str, seq: int, decision: dict) -> None:
        self._decided += 1
        sock = self._waiting.pop((client_id, seq), None)
        if sock is None:
            return  # client went away; journal keeps the decision
        conn = self._clients.get(sock)
        if conn is None:
            return
        self._send(conn, protocol.json_frame(protocol.DECISION, decision))

    # -- socket plumbing ----------------------------------------------
    def _send(self, conn: _ClientConn, data: bytes) -> None:
        conn.outbox.extend(data)
        self._flush(conn)
        if conn.outbox:
            self._selector.modify(
                conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
                ("client", conn),
            )

    def _flush(self, conn: _ClientConn) -> None:
        while conn.outbox:
            try:
                sent = conn.sock.send(conn.outbox)
            except BlockingIOError:
                return
            except OSError:
                self._drop_client(conn)
                return
            del conn.outbox[:sent]
        if conn.closing:
            self._drop_client(conn)

    def _drop_client(self, conn: _ClientConn) -> None:
        sock = conn.sock
        if sock not in self._clients:
            return
        del self._clients[sock]
        self._waiting = {
            key: value for key, value in self._waiting.items()
            if value is not sock
        }
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        # Shut the connection down, not just this fd: a shard worker
        # forked after the client connected inherits a copy of the
        # socket (plain ``fork`` ignores close-on-exec), and that copy
        # would otherwise keep the connection open — the client would
        # never see EOF.  ``shutdown`` severs the connection itself,
        # regardless of how many processes hold descriptors to it.
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()

    def _nack(self, conn: _ClientConn, code: str, detail: str) -> None:
        """Typed NACK, then close once it is flushed."""
        conn.closing = True
        self._send(conn, protocol.json_frame(
            protocol.NACK, {"code": code, "detail": detail}
        ))

    # -- frame handling ------------------------------------------------
    def _on_client_readable(self, conn: _ClientConn) -> None:
        try:
            data = conn.sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            self._drop_client(conn)
            return
        if not data:
            self._drop_client(conn)
            return
        conn.reader.feed(data)
        try:
            for ftype, payload in conn.reader.frames():
                client = conn.client_id or "<anonymous>"
                if faults.serve_conn_gate(client):
                    self._on_incident({
                        "kind": "conn-drop",
                        "client": client,
                        "injected": True,
                    })
                    self._drop_client(conn)
                    return
                payload = faults.serve_frame_gate(client, payload)
                self._handle_frame(conn, ftype, payload)
                if conn.sock not in self._clients or conn.closing:
                    return
        except ServeProtocolError as exc:
            self._quarantine(conn, b"", f"protocol: {exc}")
            self._nack(conn, protocol.NACK_PROTOCOL, str(exc))

    def _handle_frame(self, conn: _ClientConn, ftype: int,
                      payload: bytes) -> None:
        if ftype == protocol.HELLO:
            hello = protocol.parse_json(payload)
            conn.client_id = str(hello.get("client", "<anonymous>"))
            self._send(conn, protocol.json_frame(protocol.HELLO_OK, {
                "version": protocol.PROTOCOL_VERSION,
                "shards": len(self.supervisors),
                "row_bytes": EVENT_ROW_BYTES,
            }))
            return
        if conn.client_id is None:
            raise ServeProtocolError("first frame must be HELLO")
        if ftype == protocol.BYE:
            conn.closing = True
            self._flush(conn)
            return
        if self.draining:
            self._nack(conn, protocol.NACK_DRAINING,
                       "daemon is draining")
            return
        if ftype == protocol.EXEC_BEGIN:
            try:
                header = protocol.parse_json(payload)
            except ServeProtocolError as exc:
                self._reject_malformed(conn, payload, str(exc))
                return
            conn.pending = {
                "header": header,
                "rows": bytearray(),
            }
            conn.pending_bytes = 0
            return
        if ftype == protocol.ROWS:
            if conn.pending is None:
                raise ServeProtocolError("ROWS outside an execution")
            conn.pending_bytes += len(payload)
            if conn.pending_bytes > self.max_pending_bytes:
                self._on_incident({
                    "kind": "client-shed",
                    "client": conn.client_id,
                    "pending_bytes": conn.pending_bytes,
                })
                self._nack(conn, protocol.NACK_BACKPRESSURE,
                           "execution exceeds the pending-bytes bound")
                return
            conn.pending["rows"].extend(payload)
            return
        if ftype == protocol.EXEC_END:
            if conn.pending is None:
                raise ServeProtocolError("EXEC_END outside an execution")
            self._submit(conn)
            return
        raise ServeProtocolError(
            f"unexpected frame type {protocol.FRAME_NAMES.get(ftype, ftype)}"
        )

    def _submit(self, conn: _ClientConn) -> None:
        pending = conn.pending
        conn.pending = None
        conn.pending_bytes = 0
        header = pending["header"]
        rows = bytes(pending["rows"])
        # The store's own check (row grid, type and kind codes) runs
        # before queueing: a payload the worker's decode would reject
        # must be quarantined once, not crash the shard on every
        # redelivery.
        try:
            decode_column_rows(rows)
        except TraceStoreError as exc:
            self._reject_malformed(conn, rows, str(exc))
            return
        try:
            application = str(header["application"])
            seq = int(header["seq"])
            job = {
                "client": conn.client_id,
                "client_seq": seq,
                "application": application,
                "execution_index": int(header["execution"]),
                "initial_pids": [int(p) for p in header["initial_pids"]],
                "rows": rows,
            }
        except (KeyError, TypeError, ValueError) as exc:
            self._reject_malformed(conn, rows, f"bad header: {exc!r}")
            return
        supervisor = self.supervisors[
            shard_of(application, len(self.supervisors))
        ]
        if not supervisor.submit(job):
            self._on_incident({
                "kind": "client-shed",
                "client": conn.client_id,
                "shard": supervisor.shard_id,
                "queue_depth": supervisor.depth,
            })
            self._nack(conn, protocol.NACK_OVERLOADED,
                       f"shard {supervisor.shard_id} queue is full")
            return
        self._waiting[(conn.client_id, seq)] = conn.sock

    def _reject_malformed(self, conn: _ClientConn, payload: bytes,
                          detail: str) -> None:
        self._quarantine(conn, payload, detail)
        self._nack(conn, protocol.NACK_MALFORMED, detail)

    def _quarantine(self, conn: _ClientConn, payload: bytes,
                    detail: str) -> None:
        """Preserve a malformed frame as ``quarantine/*.corrupt``."""
        self._quarantined += 1
        client = conn.client_id or "anonymous"
        name = f"{client}-{self._quarantined}.corrupt"
        path = self.state_dir / "quarantine" / name
        try:
            path.write_bytes(payload)
        except OSError:
            pass
        self._on_incident({
            "kind": "malformed-frame",
            "client": client,
            "quarantined": name,
            "detail": detail,
        })

    # -- control socket ------------------------------------------------
    def _on_control(self, sock: socket.socket) -> None:
        try:
            conn, _ = sock.accept()
        except OSError:
            return
        with conn:
            conn.settimeout(5.0)
            try:
                line = conn.makefile("r", encoding="utf-8").readline()
                request = json.loads(line) if line.strip() else {}
            except (OSError, json.JSONDecodeError):
                return
            command = request.get("cmd", "health")
            if command == "ping":
                response = {"ok": True}
            elif command == "health":
                response = self.health()
            elif command == "tables":
                response = self.tables()
            elif command == "drain":
                self.draining = True
                response = {"ok": True, "draining": True}
            else:
                response = {"error": f"unknown command {command!r}"}
            try:
                conn.sendall((json.dumps(response) + "\n").encode("utf-8"))
            except OSError:
                pass

    def health(self) -> dict:
        """The health document (control-socket ``health`` command)."""
        merged = PredictionStats()
        shard_stats = []
        for supervisor in self.supervisors:
            collected: dict = {}

            def receive(kind: str, payload: dict,
                        into: dict = collected) -> None:
                into.update(payload)

            supervisor.request_info("stats", receive)
            if not supervisor.degraded:
                deadline = time.monotonic() + 5.0
                while not collected and time.monotonic() < deadline:
                    if supervisor.conn is not None and \
                            supervisor.conn.poll(0.05):
                        supervisor.on_readable()
            # After the pump: a worker answers only once it has
            # replayed its journal, so ``recovered`` is final here.
            entry = supervisor.health()
            if collected:
                entry["executions"] = collected.get("executions", 0)
                entry["applications"] = collected.get("applications", [])
                counters = collected.get("counters")
                if counters:
                    entry["counters"] = counters
                    merged.merge(PredictionStats.from_dict(counters))
            shard_stats.append(entry)
        return {
            "predictor": self.predictor,
            "shards": shard_stats,
            "clients": len(self._clients),
            "decisions": self._decided,
            "draining": self.draining,
            "counters": merged.to_dict(),
            "incidents": self.incidents,
        }

    def tables(self) -> dict:
        """Canonical per-application table snapshots across shards."""
        tables: dict = {}
        for supervisor in self.supervisors:
            collected: dict = {}

            def receive(kind: str, payload: dict,
                        into: dict = collected) -> None:
                into.update(payload)

            supervisor.request_info("tables", receive)
            if not supervisor.degraded:
                deadline = time.monotonic() + 5.0
                while not collected and time.monotonic() < deadline:
                    if supervisor.conn is not None and \
                            supervisor.conn.poll(0.05):
                        supervisor.on_readable()
            tables.update(collected)
        return {"predictor": self.predictor, "applications": tables}

    # -- main loop -----------------------------------------------------
    def _install_signals(self) -> None:
        def notify(signum, frame):
            try:
                self._signal_tx.send(b"x")
            except OSError:
                pass

        for signum in (signal.SIGTERM, signal.SIGINT):
            self._old_handlers[signum] = signal.signal(signum, notify)

    def _restore_signals(self) -> None:
        for signum, handler in self._old_handlers.items():
            signal.signal(signum, handler)

    def serve_forever(self) -> None:
        """Run until a drain completes (SIGTERM/SIGINT or control cmd)."""
        self._install_signals()
        selector = self._selector
        selector.register(self._listen, selectors.EVENT_READ, ("listen",))
        selector.register(self._control, selectors.EVENT_READ, ("control",))
        selector.register(self._signal_rx, selectors.EVENT_READ, ("signal",))
        for supervisor in self.supervisors:
            self._sync_shard_registration(supervisor)
        try:
            self._loop()
        finally:
            self._restore_signals()
            self._shutdown()

    def _loop(self) -> None:
        while True:
            events = self._selector.select(timeout=0.25)
            for key, mask in events:
                tag = key.data[0]
                if tag == "listen":
                    self._accept()
                elif tag == "control":
                    self._on_control(self._control)
                elif tag == "signal":
                    try:
                        self._signal_rx.recv(16)
                    except OSError:
                        pass
                    self.draining = True
                elif tag == "shard":
                    supervisor = key.data[1]
                    supervisor.on_readable()
                    self._sync_shard_registration(supervisor)
                elif tag == "client":
                    conn = key.data[1]
                    if mask & selectors.EVENT_WRITE:
                        self._flush(conn)
                        if conn.sock in self._clients and not conn.outbox:
                            self._selector.modify(
                                conn.sock, selectors.EVENT_READ,
                                ("client", conn),
                            )
                    if mask & selectors.EVENT_READ:
                        if conn.sock in self._clients:
                            self._on_client_readable(conn)
            now = time.monotonic()
            for supervisor in self.supervisors:
                supervisor.check_stall(now)
                self._sync_shard_registration(supervisor)
                if supervisor.refused is not None:
                    raise ServeError(supervisor.refused)
            if self.draining and self._drained():
                return

    def _sync_shard_registration(self, supervisor: ShardSupervisor) -> None:
        """Make the selector match the supervisor's current pipe.

        Safe to call any time; it is run after every dispatch round so a
        restart triggered from *any* code path — shard-pipe EOF, a
        failed ``send`` during a client submit, a health pump noticing
        the death — ends with the fresh pipe registered and the dead
        one forgotten.
        """
        current: Optional[int] = None
        if not supervisor.degraded and supervisor.conn is not None:
            try:
                current = supervisor.conn.fileno()
            except OSError:
                current = None
        wanted = (None if current is None
                  else (current, supervisor.restarts))
        registered = self._shard_reg.get(supervisor.shard_id)
        if registered == wanted:
            return
        if registered is not None:
            try:
                self._selector.unregister(registered[0])
            except (KeyError, ValueError, OSError):
                pass
            del self._shard_reg[supervisor.shard_id]
        if wanted is not None:
            self._selector.register(
                supervisor.conn, selectors.EVENT_READ,
                ("shard", supervisor),
            )
            self._shard_reg[supervisor.shard_id] = wanted

    def _drained(self) -> bool:
        """True once no queued or in-flight work remains anywhere."""
        return all(s.depth == 0 for s in self.supervisors)

    def _accept(self) -> None:
        try:
            sock, _ = self._listen.accept()
        except OSError:
            return
        if self.draining:
            sock.close()
            return
        sock.setblocking(False)
        conn = _ClientConn(sock)
        self._clients[sock] = conn
        self._selector.register(sock, selectors.EVENT_READ,
                                ("client", conn))

    def _shutdown(self) -> None:
        for sock in list(self._clients):
            self._drop_client(self._clients[sock])
        for supervisor in self.supervisors:
            supervisor.drain()
        for sock in (self._listen, self._control, self._signal_rx,
                     self._signal_tx):
            try:
                sock.close()
            except OSError:
                pass
        if self._is_unix:
            for path in (self.address, self.control_address):
                try:
                    os.unlink(path)
                except OSError:
                    pass


def _unix_listener(path: str) -> socket.socket:
    try:
        os.unlink(path)
    except OSError:
        pass
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(path)
    sock.listen(_ACCEPT_BACKLOG)
    sock.setblocking(False)
    return sock


def _tcp_listener(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(_ACCEPT_BACKLOG)
    sock.setblocking(False)
    return sock
