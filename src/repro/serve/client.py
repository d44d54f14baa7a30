"""Blocking feed client for the serve daemon.

:class:`ServeClient` streams executions to a running daemon and blocks
for each decision.  It is deliberately simple — one execution in flight
at a time — because its job is correctness under failure, not
throughput: every submission carries a monotonically increasing
``client_seq``, and on *any* connection loss (daemon-side drop, injected
``serve.conn_drop``, NACKed overload) the client reconnects with the
same identity and **resends the whole in-flight execution under the
same sequence number**.  The worker's journal dedup turns the retry
into an exact replay of the original decision, so client-visible
results are unaffected by how many times the connection died.
"""

from __future__ import annotations

import socket
import time
from typing import Optional

import json

from repro.errors import ServeError, ServeProtocolError
from repro.serve import protocol
from repro.traces.store import EVENT_ROW_BYTES, encode_column_rows
# Not called here since executions travel as columns; perfbench's client
# probe still patches this name in this module.
from repro.traces.store import encode_event_rows  # noqa: F401

#: Rows per ROWS frame (~34 KB at 66 B/row).
DEFAULT_ROWS_PER_FRAME = 512


class ServeClient:
    """One client identity speaking the serve feed protocol."""

    def __init__(
        self,
        address: str,
        client_id: str,
        *,
        retries: int = 8,
        retry_delay: float = 0.2,
        rows_per_frame: int = DEFAULT_ROWS_PER_FRAME,
        timeout: float = 120.0,
    ) -> None:
        self.address = address
        self.client_id = client_id
        self.retries = retries
        self.retry_delay = retry_delay
        self.rows_per_frame = rows_per_frame
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._seq = 0

    # -- connection management ----------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        if ":" in self.address and "/" not in self.address:
            host, _, port = self.address.rpartition(":")
            sock = socket.create_connection((host, int(port)),
                                            timeout=self.timeout)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.address)
        sock.sendall(protocol.json_frame(
            protocol.HELLO, {"client": self.client_id}
        ))
        frame = protocol.read_frame(sock)
        if frame is None or frame[0] != protocol.HELLO_OK:
            sock.close()
            raise ServeProtocolError("daemon did not answer HELLO")
        self._sock = sock
        return sock

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    # -- submission ----------------------------------------------------
    def submit_execution(self, execution) -> dict:
        """Stream one execution; block for (and return) its decision.

        ``execution`` is an :class:`~repro.traces.trace.ExecutionTrace`
        or a :class:`~repro.traces.store.StoredExecution`; its columns
        go on the wire as they are (:func:`encode_column_rows`).

        Retries transparently across connection drops and recoverable
        NACKs (``draining``/``backpressure``/``overloaded``/
        ``malformed``); a ``protocol`` NACK is terminal and raises
        :class:`ServeError`.
        """
        seq = self._seq
        self._seq += 1
        rows = encode_column_rows(execution.columns)
        header = {
            "application": execution.application,
            "execution": execution.execution_index,
            "seq": seq,
            "initial_pids": sorted(execution.initial_pids),
        }
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.retry_delay * attempt)
            try:
                return self._attempt(header, rows)
            except (ConnectionError, OSError, ServeProtocolError) as exc:
                last_error = exc
                self._disconnect()
            except _Retryable as exc:
                last_error = ServeError(str(exc))
                self._disconnect()
        raise ServeError(
            f"client {self.client_id}: execution seq {seq} failed after "
            f"{self.retries + 1} attempt(s): {last_error}"
        )

    def _attempt(self, header: dict, rows: bytes) -> dict:
        sock = self._connect()
        sock.sendall(protocol.json_frame(protocol.EXEC_BEGIN, header))
        step = max(1, self.rows_per_frame) * EVENT_ROW_BYTES
        for start in range(0, len(rows), step):
            sock.sendall(protocol.encode_frame(
                protocol.ROWS, rows[start:start + step]
            ))
        sock.sendall(protocol.json_frame(protocol.EXEC_END, {}))
        while True:
            frame = protocol.read_frame(sock)
            if frame is None:
                raise ConnectionError("connection closed before decision")
            ftype, payload = frame
            if ftype == protocol.DECISION:
                return protocol.parse_json(payload)
            if ftype == protocol.NACK:
                nack = protocol.parse_json(payload)
                code = nack.get("code")
                if code in (protocol.NACK_DRAINING,
                            protocol.NACK_BACKPRESSURE,
                            protocol.NACK_OVERLOADED,
                            # Frames corrupted in flight (e.g. the
                            # serve.frame_truncate fault) are quarantined
                            # daemon-side; resending the same seq is the
                            # correct recovery and dedups exactly.
                            protocol.NACK_MALFORMED):
                    raise _Retryable(f"{code}: {nack.get('detail')}")
                raise ServeError(
                    f"daemon rejected execution: {code}: "
                    f"{nack.get('detail')}"
                )
            raise ServeProtocolError(
                f"unexpected frame {protocol.FRAME_NAMES.get(ftype, ftype)}"
            )

    def close(self) -> None:
        """Send BYE (best effort) and disconnect."""
        if self._sock is not None:
            try:
                self._sock.sendall(protocol.json_frame(protocol.BYE, {}))
            except OSError:
                pass
        self._disconnect()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _Retryable(Exception):
    """A NACK the client should wait out and retry."""


def control_request(address: str, command: str, *,
                    timeout: float = 30.0) -> dict:
    """One request/response on a daemon's control socket."""
    if ":" in address and "/" not in address:
        host, _, port = address.rpartition(":")
        sock = socket.create_connection((host, int(port)), timeout=timeout)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
    with sock:
        sock.sendall((json.dumps({"cmd": command}) + "\n").encode("utf-8"))
        reader = sock.makefile("r", encoding="utf-8")
        line = reader.readline()
    if not line.strip():
        raise ServeError(f"empty control response for {command!r}")
    return json.loads(line)
