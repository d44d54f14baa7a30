"""Crash-safe prediction state for one serve shard.

A shard's entire predictor state is **event-sourced**: the journal
records every execution the shard ever processed (its rows plus the
decision returned), and the in-memory prediction tables are always a
pure replay of that record.  That makes recovery trivial and exact —
a restarted worker replays the journal through fresh predictor specs
and ends with *bit-identical* table contents, because it runs the very
same :func:`~repro.sim.engine.run_global_execution` calls the live
worker ran.

Layout of ``state_dir/shard-<k>/``::

    rows.bin        # append-only ROWS payloads, end to end, fsynced
    journal.jsonl   # append-only records, fsynced per record

Journal records::

    {"type": "provenance", "predictor": ..., "config": ..., "format": 2}
    {"type": "execution", "app_seq": 3, "application": "mozilla",
     "client": "c1", "client_seq": 2, "execution_index": 5,
     "initial_pids": [100], "offset": 19800, "length": 6600,
     "decision": {...}}

Each execution's rows are written once, as the ``ROWS`` payload the
worker has already decoded and checked
(:func:`~repro.traces.store.decode_column_rows`): appended to
``rows.bin`` and fsynced, then pointed at by its record's byte
``offset`` and ``length``, fsynced in turn.  The decision is released
only after both.  Neither file is ever rewritten, and recovery reads
each payload straight back into columns, building no event objects.

Loading follows the same crash order:

* a torn final journal line (crash mid-append) is truncated away,
  mirroring :class:`repro.sim.resilience.CellCheckpoint`; the daemon
  then re-answers the affected client's retry idempotently;
* garbage mid-journal refuses to load;
* ``rows.bin`` bytes past the last record's payload (a crash between
  the two appends) are truncated away, so the next payload lands right
  after the last record's;
* a record whose payload runs past the end of ``rows.bin`` refuses to
  load, and one whose payload does not decode refuses to replay;
* a journal of another format refuses to load, as a provenance
  mismatch does.

Every refusal is one :class:`~repro.errors.ServeError` naming the
shard directory; the serve daemon ends with it rather than restart a
worker that would meet the same files again.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import ServeError, TraceStoreError
from repro.traces.store import decode_column_rows
from repro.traces.trace import ExecutionTrace

#: Journal schema version.
JOURNAL_FORMAT = 2

JOURNAL_NAME = "journal.jsonl"
ROWS_NAME = "rows.bin"


class ShardJournal:
    """Append-only execution journal of one shard."""

    def __init__(
        self,
        shard_dir: str | os.PathLike[str],
        *,
        provenance: Optional[dict] = None,
    ) -> None:
        self.shard_dir = Path(shard_dir)
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.shard_dir / JOURNAL_NAME
        self.rows_path = self.shard_dir / ROWS_NAME
        self.provenance: Optional[dict] = None
        #: Records in append order (the replay tape).
        self.records: list[dict] = []
        #: ``(client, client_seq) -> decision`` for idempotent retries.
        self.decisions: dict[tuple[str, int], dict] = {}
        #: Bytes of torn appends cut from both files on load.
        self.torn_bytes = 0
        self._stream = None
        self._rows = None
        if self.path.exists():
            self._load()
        self._trim_rows()
        if provenance is not None:
            self._declare_provenance(provenance)

    # -- loading -------------------------------------------------------
    def _load(self) -> None:
        raw = self.path.read_bytes()
        offset = 0
        valid_end = 0
        for chunk in raw.split(b"\n"):
            end = min(len(raw), offset + len(chunk) + 1)
            line = chunk.decode("utf-8", errors="replace").strip()
            offset = end
            if not line:
                valid_end = end
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # Only a torn tail is survivable; garbage mid-journal
                # means the shard state cannot be trusted.
                if any(rest.strip() for rest in
                       raw[end:].split(b"\n")):
                    raise ServeError(
                        f"shard journal {self.path} is corrupt "
                        "mid-stream; remove the shard directory to "
                        "reset its state"
                    ) from None
                break
            self._ingest(record)
            valid_end = end
        if valid_end < len(raw):
            self.torn_bytes = len(raw) - valid_end
            with open(self.path, "r+b") as stream:
                stream.truncate(valid_end)

    def _ingest(self, record: dict) -> None:
        rtype = record.get("type")
        if rtype == "provenance":
            found = record.get("format")
        elif rtype == "execution":
            if "length" in record:
                self.records.append(record)
                self.decisions[
                    (str(record["client"]), int(record["client_seq"]))
                ] = record["decision"]
                return
            found = 1  # rows inline or in a segment
        else:
            raise ServeError(
                f"shard journal {self.path} holds an unknown record "
                f"type {rtype!r}"
            )
        if found != JOURNAL_FORMAT:
            raise ServeError(
                f"shard directory {self.shard_dir} holds a format-{found} "
                f"journal and this build reads format {JOURNAL_FORMAT} "
                "only; remove the state directory to reset its state"
            )
        self.provenance = record

    def _trim_rows(self) -> None:
        """Cut payload bytes no record points at (a torn append) from
        ``rows.bin``; refuse records whose payload it does not hold."""
        end = max((record["offset"] + record["length"]
                   for record in self.records), default=0)
        try:
            size = self.rows_path.stat().st_size
        except FileNotFoundError:
            size = 0
        if end > size:
            raise ServeError(
                f"shard journal {self.path} points at {end} byte(s) of "
                f"rows but {self.rows_path} holds {size}; remove the "
                "shard directory to reset its state"
            )
        if size > end:
            self.torn_bytes += size - end
            with open(self.rows_path, "r+b") as stream:
                stream.truncate(end)

    def _declare_provenance(self, provenance: dict) -> None:
        declared = {"type": "provenance", "format": JOURNAL_FORMAT,
                    **provenance}
        if self.provenance is not None:
            mismatched = {
                key for key in provenance
                if self.provenance.get(key) != provenance[key]
            }
            if mismatched:
                raise ServeError(
                    f"shard journal {self.path} was written under a "
                    f"different configuration ({sorted(mismatched)} "
                    "differ); remove the state directory or restart "
                    "with the original settings"
                )
            return
        self.provenance = declared
        self._append(declared)

    # -- appending -----------------------------------------------------
    def _append(self, record: dict) -> None:
        if self._stream is None:
            self._stream = open(self.path, "a", encoding="utf-8")
        self._stream.write(json.dumps(record) + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def record_execution(
        self,
        *,
        client: str,
        client_seq: int,
        application: str,
        execution_index: int,
        initial_pids: list[int],
        rows: bytes,
        decision: dict,
    ) -> None:
        """Durably journal one processed execution: its ``ROWS`` payload
        to ``rows.bin``, then its record, each fsynced before the
        decision is released to the client."""
        if self._rows is None:
            self._rows = open(self.rows_path, "ab")
        offset = self._rows.tell()
        self._rows.write(rows)
        self._rows.flush()
        os.fsync(self._rows.fileno())
        record = {
            "type": "execution",
            "app_seq": len(self.records),
            "application": application,
            "client": client,
            "client_seq": client_seq,
            "execution_index": execution_index,
            "initial_pids": list(initial_pids),
            "offset": offset,
            "length": len(rows),
            "decision": decision,
        }
        self._append(record)
        self.records.append(record)
        self.decisions[(client, client_seq)] = decision

    def compact(self) -> None:
        """Nothing to move: every payload is written once, where it
        stays.  Returns ``None``; perfbench's worker probe patches this
        name."""
        return None

    # -- replay --------------------------------------------------------
    def replay(self) -> Iterator[tuple[dict, ExecutionTrace]]:
        """Yield ``(record, execution)`` in original processing order,
        each execution's rows read back from ``rows.bin`` into
        columns."""
        if not self.records:
            return
        with open(self.rows_path, "rb") as stream:
            for record in self.records:
                stream.seek(record["offset"])
                try:
                    columns = decode_column_rows(
                        stream.read(record["length"])
                    )
                except TraceStoreError as error:
                    raise ServeError(
                        f"shard journal {self.path} record "
                        f"{record['app_seq']}: its rows in "
                        f"{self.rows_path} do not decode ({error}); "
                        "remove the shard directory to reset its state"
                    ) from None
                yield record, ExecutionTrace(
                    str(record["application"]),
                    int(record["execution_index"]),
                    columns,
                    frozenset(int(p) for p in record["initial_pids"]),
                )

    def close(self) -> None:
        for stream in (self._stream, self._rows):
            if stream is not None:
                stream.close()
        self._stream = self._rows = None

    def __enter__(self) -> "ShardJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
