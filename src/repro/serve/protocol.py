"""Wire protocol of the online DPM service (:mod:`repro.serve`).

Framing is length-prefixed binary: every frame is a 4-byte big-endian
unsigned length ``L`` followed by ``L`` bytes of body, where the body is
one type byte plus the payload::

    +----------+------+-------------------+
    | !I length| type | payload (L-1 B)   |
    +----------+------+-------------------+

Payloads are UTF-8 JSON for every frame type except :data:`ROWS`, whose
payload is an execution's columns — the trace store's columns laid end
to end (:func:`repro.traces.store.encode_column_rows`, 66 bytes per
event) — which the shard worker reads straight back into columns
(:func:`repro.traces.store.decode_column_rows`), so an execution
round-trips the socket bit-identically.

A client conversation::

    -> HELLO      {"client": "c1"}
    <- HELLO_OK   {"shards": 2, "row_bytes": 66}
    -> EXEC_BEGIN {"application": "mozilla", "execution": 0,
                   "seq": 0, "initial_pids": [100]}
    -> ROWS       <columnar rows>          (repeated, any chunking)
    -> EXEC_END   {}
    <- DECISION   {"seq": 0, "stats": {...}, "fired": [...], ...}
    -> BYE        {}

Any protocol violation or overload is answered with a typed
:data:`NACK` (``{"code": ..., "detail": ...}``) before the connection
is closed; see :mod:`repro.serve.daemon` for the code vocabulary.
"""

from __future__ import annotations

import json
import struct
from typing import Iterator, Optional

from repro.errors import ServeProtocolError

#: Protocol version, carried in HELLO/HELLO_OK.
PROTOCOL_VERSION = 1

# Frame types ---------------------------------------------------------
HELLO = 1
HELLO_OK = 2
EXEC_BEGIN = 3
ROWS = 4
EXEC_END = 5
DECISION = 6
NACK = 7
BYE = 8

FRAME_NAMES = {
    HELLO: "HELLO",
    HELLO_OK: "HELLO_OK",
    EXEC_BEGIN: "EXEC_BEGIN",
    ROWS: "ROWS",
    EXEC_END: "EXEC_END",
    DECISION: "DECISION",
    NACK: "NACK",
    BYE: "BYE",
}

#: Hard per-frame size cap: a frame longer than this is a protocol
#: violation, not a large request (16 MiB ≈ 250k rows).
MAX_FRAME = 16 * 1024 * 1024

_LENGTH = struct.Struct("!I")

# NACK codes ----------------------------------------------------------
NACK_BACKPRESSURE = "backpressure"
NACK_OVERLOADED = "overloaded"
NACK_MALFORMED = "malformed"
NACK_DRAINING = "draining"
NACK_PROTOCOL = "protocol"


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    """One wire frame: length prefix + type byte + payload."""
    body_len = 1 + len(payload)
    if body_len > MAX_FRAME:
        raise ServeProtocolError(
            f"frame of {body_len} byte(s) exceeds the {MAX_FRAME}-byte cap"
        )
    return _LENGTH.pack(body_len) + bytes([ftype]) + payload


def json_frame(ftype: int, obj: dict) -> bytes:
    """A frame whose payload is the JSON encoding of ``obj``."""
    return encode_frame(ftype, json.dumps(obj).encode("utf-8"))


def parse_json(payload: bytes) -> dict:
    """Decode a JSON frame payload; raise :class:`ServeProtocolError`
    (never a bare ``json`` error) on garbage."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeProtocolError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ServeProtocolError("JSON payload must be an object")
    return obj


class FrameReader:
    """Incremental frame parser for a non-blocking socket.

    Feed raw received bytes with :meth:`feed`; complete ``(type,
    payload)`` frames come back from :meth:`frames`.  The reader never
    buffers more than one frame beyond what was fed, and rejects
    oversized or zero-length frames with :class:`ServeProtocolError`
    *before* buffering their body, so a hostile length prefix cannot
    balloon memory.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def __len__(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def frames(self) -> Iterator[tuple[int, bytes]]:
        """Yield every complete frame currently buffered."""
        buffer = self._buffer
        while True:
            if len(buffer) < _LENGTH.size:
                return
            (body_len,) = _LENGTH.unpack_from(buffer)
            if body_len == 0:
                raise ServeProtocolError("zero-length frame")
            if body_len > MAX_FRAME:
                raise ServeProtocolError(
                    f"declared frame of {body_len} byte(s) exceeds the "
                    f"{MAX_FRAME}-byte cap"
                )
            end = _LENGTH.size + body_len
            if len(buffer) < end:
                return
            ftype = buffer[_LENGTH.size]
            payload = bytes(buffer[_LENGTH.size + 1:end])
            del buffer[:end]
            yield ftype, payload


def read_frame(sock) -> Optional[tuple[int, bytes]]:
    """Blocking read of exactly one frame from a connected socket.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`ServeProtocolError` on EOF mid-frame.
    """
    header = _read_exact(sock, _LENGTH.size, eof_ok=True)
    if header is None:
        return None
    (body_len,) = _LENGTH.unpack(header)
    if body_len == 0 or body_len > MAX_FRAME:
        raise ServeProtocolError(f"illegal frame length {body_len}")
    body = _read_exact(sock, body_len, eof_ok=False)
    assert body is not None
    return body[0], bytes(body[1:])


def _read_exact(sock, count: int, *, eof_ok: bool) -> Optional[bytes]:
    chunks = bytearray()
    while len(chunks) < count:
        data = sock.recv(count - len(chunks))
        if not data:
            if eof_ok and not chunks:
                return None
            raise ServeProtocolError("connection closed mid-frame")
        chunks.extend(data)
    return bytes(chunks)
