"""Shard worker: live online prediction over journaled client feeds.

A :class:`ShardWorker` owns the predictor state of every application
hashed to its shard.  It processes one execution at a time through the
**exact** offline code path — :func:`repro.cache.filter.filter_execution`
followed by :func:`repro.sim.engine.run_global_execution` with a
persistent per-application :class:`~repro.predictors.registry.PredictorSpec`,
then ``spec.on_execution_end()`` — which is word for word the loop of
:meth:`repro.sim.experiment.ExperimentRunner.run_global`.  Online
decisions are therefore bit-identical to an offline replay of the same
feed *by construction*; the equivalence battery cross-checks this
against an actual :meth:`run_global` run rather than trusting it.
The worker replays untraced: a decision's ``fired`` timeline is the
engine's own :attr:`~repro.sim.engine.ExecutionRunResult.fired`, the
rows a traced run emits as ``shutdown-fired`` events, so no trace event
is built and no decision depends on the observability layer.
A submission's ``ROWS`` payload is read straight into the trace
store's columns (:func:`~repro.traces.store.decode_column_rows`), the
in-memory form of every offline execution too, so no event object is
built between the socket and the decision.

The worker journals each execution — that same payload, then the
decision, each fsynced — **before** releasing its decision, so any
decision a client ever saw is recoverable.  On start it replays the
journal to rebuild its tables, and answers duplicate ``(client,
client_seq)`` submissions from the journal — that is what makes client
retries after a connection drop, and supervisor replays after a
SIGKILL, idempotent.

The same class runs forked (:func:`worker_main` served over a
``multiprocessing`` pipe) or inline inside the daemon process when the
supervisor degrades — mirroring the resilient executor's pool →
in-process degradation.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro import faults
from repro.cache.filter import filter_execution
from repro.config import SimulationConfig
from repro.errors import ServeError
from repro.predictors.registry import PredictorSpec, make_spec
from repro.sim.engine import run_global_execution
from repro.sim.metrics import PredictionStats
from repro.serve.state import ShardJournal
from repro.traces.store import decode_column_rows
# Not called here since rows are read straight into columns; perfbench's
# worker probe still patches this name in this module.
from repro.traces.store import decode_event_rows  # noqa: F401
from repro.traces.trace import ExecutionLike, ExecutionTrace


def shard_of(application: str, shards: int) -> int:
    """Stable application → shard mapping (BLAKE2b, layout-independent)."""
    digest = hashlib.blake2b(application.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big") % shards


def table_snapshot(spec: PredictorSpec) -> dict:
    """Canonical JSON-safe snapshot of a spec's shared table state.

    For table predictors (PCAP family, via the bound
    ``end_execution_hook``) the snapshot carries every key in LRU
    order — byte-for-byte comparable across online and offline runs.
    Predictors without an inspectable table report their size only.
    """
    snapshot: dict = {"name": spec.name, "size": spec.table_size}
    hook = spec.end_execution_hook
    shared = getattr(hook, "__self__", None) if hook is not None else None
    table = getattr(shared, "table", None)
    keys = getattr(table, "keys", None)
    if callable(keys):
        snapshot["keys"] = [
            list(key) if isinstance(key, tuple) else key
            for key in keys()
        ]
        private = getattr(shared, "_private_tables", None)
        if private:
            snapshot["private"] = {
                str(pid): [
                    list(key) if isinstance(key, tuple) else key
                    for key in sub.keys()
                ]
                for pid, sub in sorted(private.items())
            }
    return snapshot


class ShardWorker:
    """Predictor state and processing loop of one shard."""

    def __init__(
        self,
        shard_id: int,
        state_dir,
        *,
        predictor: str = "PCAP",
        config: Optional[SimulationConfig] = None,
    ) -> None:
        self.shard_id = shard_id
        self.predictor = predictor
        self.config = config or SimulationConfig()
        self.journal = ShardJournal(
            f"{state_dir}/shard-{shard_id}",
            provenance={
                "predictor": predictor,
                "config": repr(self.config),
            },
        )
        self._specs: dict[str, PredictorSpec] = {}
        self._stats: dict[str, PredictionStats] = {}
        self.executions = 0
        self.recovered = self._recover()

    def _spec(self, application: str) -> PredictorSpec:
        spec = self._specs.get(application)
        if spec is None:
            spec = make_spec(self.predictor, self.config)
            self._specs[application] = spec
            self._stats[application] = PredictionStats()
        return spec

    def _recover(self) -> int:
        """Rebuild tables by replaying the journal (see module doc)."""
        count = 0
        for record, execution in self.journal.replay():
            self._run(execution, record["application"])
            count += 1
        self.executions = count
        return count

    def _run(self, execution: ExecutionLike, application: str) -> dict:
        """The offline code path, verbatim, for one execution."""
        spec = self._spec(application)
        filtered = filter_execution(execution, self.config.cache)
        result = run_global_execution(execution, filtered, spec, self.config)
        self._stats[application].merge(result.stats)
        spec.on_execution_end()
        ledger = result.ledger
        return {
            "application": application,
            "execution_index": execution.execution_index,
            "stats": result.stats.to_dict(),
            "energy": {
                "busy": ledger.busy,
                "idle_short": ledger.idle_short,
                "idle_long": ledger.idle_long,
                "power_cycle": ledger.power_cycle,
                "standby": ledger.standby,
            },
            "shutdowns": result.shutdowns,
            "disk_accesses": result.disk_accesses,
            "delayed_requests": result.delayed_requests,
            "delay_seconds": result.delay_seconds,
            "irritating_delays": result.irritating_delays,
            "table_size": spec.table_size,
            "fired": result.fired,
        }

    def process(
        self,
        *,
        client: str,
        client_seq: int,
        application: str,
        execution_index: int,
        initial_pids: list[int],
        rows: bytes,
    ) -> dict:
        """Run one submitted execution; idempotent on retries."""
        previous = self.journal.decisions.get((client, client_seq))
        if previous is not None:
            return previous
        faults.serve_worker_gate(application)
        execution = ExecutionTrace(
            application, execution_index, decode_column_rows(rows),
            frozenset(int(p) for p in initial_pids),
        )
        decision = self._run(execution, application)
        decision["seq"] = client_seq
        # Journal position: the shard-global processing order, which is
        # what an offline replay must follow to be bit-identical.
        decision["app_seq"] = len(self.journal.records)
        self.journal.record_execution(
            client=client,
            client_seq=client_seq,
            application=application,
            execution_index=execution_index,
            initial_pids=list(initial_pids),
            rows=rows,
            decision=decision,
        )
        self.executions += 1
        return decision

    def stats(self) -> dict:
        """Per-application and merged counters (health endpoint)."""
        merged = PredictionStats.merged(list(self._stats.values()))
        return {
            "executions": self.executions,
            "applications": sorted(self._specs),
            "counters": merged.to_dict(),
            "per_application": {
                app: stats.to_dict()
                for app, stats in sorted(self._stats.items())
            },
        }

    def tables(self) -> dict:
        """Canonical table snapshot per application."""
        return {
            app: table_snapshot(spec)
            for app, spec in sorted(self._specs.items())
        }

    def close(self) -> None:
        self.journal.close()


def worker_main(conn, shard_id: int, state_dir: str, predictor: str,
                config: Optional[SimulationConfig]) -> None:
    """Forked worker entry point: serve jobs over a duplex pipe.

    Message protocol (tuples over the ``multiprocessing`` connection):

    * ``("exec", job_dict)`` → ``("decision", client, seq, payload)``
    * ``("stats",)``  → ``("stats", payload)``
    * ``("tables",)`` → ``("tables", payload)``
    * ``("drain",)``  → ``("drained",)`` and exit

    The first message sent is ``("ready", {"recovered": n})`` after
    journal recovery, so the supervisor knows replay finished — or
    ``("refused", message)`` when the shard's journal refuses to load
    (a :class:`~repro.errors.ServeError`), after which the worker exits:
    the refusal is a fact about the state directory, which a restart
    would only meet again.
    """
    try:
        worker = ShardWorker(
            shard_id, state_dir, predictor=predictor, config=config,
        )
    except ServeError as error:
        conn.send(("refused", str(error)))
        conn.close()
        return
    conn.send(("ready", {"recovered": worker.recovered}))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        kind = message[0]
        if kind == "exec":
            job = message[1]
            decision = worker.process(**job)
            conn.send(("decision", job["client"], job["client_seq"],
                       decision))
        elif kind == "stats":
            conn.send(("stats", worker.stats()))
        elif kind == "tables":
            conn.send(("tables", worker.tables()))
        elif kind == "drain":
            worker.close()
            conn.send(("drained",))
            break
    conn.close()
