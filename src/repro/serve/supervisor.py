"""Shard supervision: fork, watch, kill, restart, degrade.

Each :class:`ShardSupervisor` owns one shard worker and the job traffic
to it.  The failure model mirrors the resilient executor
(:mod:`repro.sim.resilience`) deliberately:

* A worker that **dies** (its pipe reports EOF / the process exits) is
  restarted after a deterministic backoff —
  :meth:`ResiliencePolicy.backoff` with the shard id standing in for
  the cell index — and the journal replay inside
  :class:`~repro.serve.worker.ShardWorker` restores its tables exactly.
* A worker that **stalls** (no reply within ``stall_timeout`` of a job
  being sent) is SIGKILLed first; same restart path.  A stall injected
  by ``serve.worker_stall`` is disarmed after the kill so the replayed
  worker runs clean — a transient hang, not a crash loop.
* After ``policy.degrade_after`` incidents the supervisor stops
  forking and runs the shard **inline** in the daemon process, exactly
  like the resilient executor's pool → in-process degradation.  (Hosts
  without ``fork`` start degraded.)
* A worker whose journal **refuses** to load (another format,
  provenance drift, corruption; a :class:`~repro.errors.ServeError`
  from :class:`~repro.serve.state.ShardJournal`) is neither restarted
  nor degraded: every start would meet the same state directory.  The
  supervisor keeps the message in :attr:`ShardSupervisor.refused` and
  stops the shard, and the daemon ends with that one error.

Because every completed execution is journaled before its decision is
released, restarting at any instant loses at most the job in flight —
and that job is simply re-sent to the recovered worker, whose journal
dedup returns the identical decision if it had already been processed.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from multiprocessing import get_context
from typing import Callable, Optional

from repro import faults
from repro.config import SimulationConfig
from repro.config import fork_available
from repro.errors import ServeError
from repro.sim.resilience import ResiliencePolicy
from repro.serve.worker import ShardWorker, worker_main

#: ``(client, client_seq, decision)`` consumer supplied by the daemon.
DecisionSink = Callable[[str, int, dict], None]


class ShardSupervisor:
    """Lifecycle and job queue of one shard worker."""

    def __init__(
        self,
        shard_id: int,
        state_dir: str,
        *,
        predictor: str = "PCAP",
        config: Optional[SimulationConfig] = None,
        policy: Optional[ResiliencePolicy] = None,
        stall_timeout: float = 30.0,
        max_queue: int = 64,
        use_fork: Optional[bool] = None,
    ) -> None:
        self.shard_id = shard_id
        self.state_dir = str(state_dir)
        self.predictor = predictor
        self.config = config or SimulationConfig()
        self.policy = policy or ResiliencePolicy()
        self.stall_timeout = stall_timeout
        self.max_queue = max_queue
        self._use_fork = fork_available() if use_fork is None else use_fork
        self.conn = None
        self.process = None
        self.inline: Optional[ShardWorker] = None
        self.ready = False
        self.recovered = 0
        self.restarts = 0
        self.degraded = False
        #: The journal's refusal message once the shard refused to
        #: start (see the module doc); the shard then runs nothing.
        self.refused: Optional[str] = None
        self.queue: deque[dict] = deque()
        self.inflight: Optional[dict] = None
        self._deadline: Optional[float] = None
        #: Pending one-shot info requests ("stats"/"tables") from the
        #: daemon, answered in order by the worker.
        self._info_waiters: deque[Callable[[str, dict], None]] = deque()
        self.decision_sink: Optional[DecisionSink] = None
        self.incident_sink: Optional[Callable[[dict], None]] = None
        self.start()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Fork the worker (or construct it inline when degraded)."""
        if self.degraded or not self._use_fork:
            self.degraded = True
            try:
                self.inline = ShardWorker(
                    self.shard_id, self.state_dir,
                    predictor=self.predictor, config=self.config,
                )
            except ServeError as error:
                self.refused = str(error)
                return
            self.recovered = self.inline.recovered
            self.ready = True
            return
        context = get_context("fork")
        parent, child = context.Pipe()
        self.process = context.Process(
            target=worker_main,
            args=(child, self.shard_id, self.state_dir, self.predictor,
                  self.config),
            daemon=True,
        )
        self.process.start()
        child.close()
        self.conn = parent
        self.ready = False

    @property
    def pid(self) -> Optional[int]:
        if self.process is not None and self.process.is_alive():
            return self.process.pid
        return None

    def fileno(self) -> int:
        """Selector registration handle (forked mode only)."""
        assert self.conn is not None
        return self.conn.fileno()

    # -- job flow ------------------------------------------------------
    def submit(self, job: dict) -> bool:
        """Enqueue one execution job; ``False`` when the queue is full."""
        if len(self.queue) >= self.max_queue:
            return False
        self.queue.append(job)
        self._pump()
        return True

    @property
    def depth(self) -> int:
        return len(self.queue) + (1 if self.inflight is not None else 0)

    def _pump(self) -> None:
        if self.degraded:
            self._pump_inline()
            return
        if not self.ready or self.inflight is not None or not self.queue:
            return
        job = self.queue.popleft()
        self.inflight = job
        self._deadline = time.monotonic() + self.stall_timeout
        try:
            self.conn.send(("exec", job))
        except (BrokenPipeError, OSError):
            self._handle_death("send-failed")

    def _pump_inline(self) -> None:
        if self.inline is None:  # refused
            return
        while self.queue:
            job = self.queue.popleft()
            decision = self.inline.process(**job)
            if self.decision_sink is not None:
                self.decision_sink(
                    job["client"], job["client_seq"], decision
                )

    def request_info(self, kind: str,
                     callback: Callable[[str, dict], None]) -> None:
        """Ask the worker for ``stats`` or ``tables`` (async reply);
        a refused shard never answers."""
        if self.refused is not None:
            return
        if self.degraded:
            assert self.inline is not None
            payload = (self.inline.stats() if kind == "stats"
                       else self.inline.tables())
            callback(kind, payload)
            return
        self._info_waiters.append(callback)
        try:
            self.conn.send((kind,))
        except (BrokenPipeError, OSError):
            self._handle_death("send-failed")

    # -- event handling (daemon calls these) ---------------------------
    def on_readable(self) -> None:
        """Drain one message from the worker pipe (never blocks).

        Spurious calls are harmless: the daemon's event loop may carry
        a stale readiness event for this pipe in the same ``select``
        batch that already drained it (e.g. a control-socket ``health``
        handler pumping replies), so an unguarded ``recv`` here could
        block the whole daemon on an idle worker.
        """
        if self.conn is None:
            return
        try:
            if not self.conn.poll(0):
                return
            message = self.conn.recv()
        except (EOFError, OSError):
            self._handle_death("pipe-eof")
            return
        kind = message[0]
        if kind == "ready":
            self.ready = True
            self.recovered = message[1]["recovered"]
            self._deadline = None
            self._pump()
        elif kind == "refused":
            self.refused = message[1]
            self._stop()
        elif kind == "decision":
            _, client, client_seq, decision = message
            self.inflight = None
            self._deadline = None
            if self.decision_sink is not None:
                self.decision_sink(client, client_seq, decision)
            self._pump()
        elif kind in ("stats", "tables"):
            if self._info_waiters:
                self._info_waiters.popleft()(kind, message[1])
        elif kind == "drained":
            self.ready = False

    def check_stall(self, now: Optional[float] = None) -> None:
        """SIGKILL and restart a worker that blew its job deadline."""
        if self.degraded or self.inflight is None:
            return
        if now is None:
            now = time.monotonic()
        if self._deadline is not None and now > self._deadline:
            self._kill()
            # An injected stall has done its job; the replayed worker
            # must run clean instead of re-inheriting the stall counter.
            faults.disarm(faults.SERVE_WORKER_STALL)
            self._handle_death("stall-timeout")

    def _kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            try:
                os.kill(self.process.pid, signal.SIGKILL)
            except OSError:
                pass
            self.process.join(timeout=5.0)

    def _stop(self) -> None:
        """Close the pipe and reap the worker process."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        if self.process is not None:
            self.process.join(timeout=5.0)
            self.process = None
        self.ready = False

    def _handle_death(self, reason: str) -> None:
        """Restart (or degrade) after the worker died or was killed."""
        self._stop()
        self.restarts += 1
        if self.incident_sink is not None:
            self.incident_sink({
                "kind": "worker-restart",
                "shard": self.shard_id,
                "reason": reason,
                "restarts": self.restarts,
            })
        # Put the in-flight job back at the head: the recovered worker
        # either re-runs it or answers from its journal, identically.
        if self.inflight is not None:
            self.queue.appendleft(self.inflight)
            self.inflight = None
        self._deadline = None
        if self.restarts >= self.policy.degrade_after:
            self.degraded = True
            if self.incident_sink is not None:
                self.incident_sink({
                    "kind": "shard-degraded",
                    "shard": self.shard_id,
                    "restarts": self.restarts,
                })
        else:
            time.sleep(self.policy.backoff(self.shard_id, self.restarts))
        self.start()
        if self.degraded:
            self._pump()

    # -- shutdown ------------------------------------------------------
    def drain(self) -> None:
        """Finish queued work, then stop the worker (a refused shard has
        neither)."""
        if self.refused is not None:
            return
        if self.degraded:
            self._pump_inline()
            assert self.inline is not None
            self.inline.close()
            return
        while self.queue or self.inflight is not None or not self.ready:
            if self.conn is None:
                return
            if self.conn.poll(self.stall_timeout):
                self.on_readable()
            else:
                self.check_stall()
        try:
            self.conn.send(("drain",))
            if self.conn.poll(self.stall_timeout):
                self.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        if self.process is not None:
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self._kill()

    def health(self) -> dict:
        return {
            "shard": self.shard_id,
            "pid": self.pid,
            "alive": self.degraded or self.pid is not None,
            "degraded": self.degraded,
            "ready": self.ready,
            "restarts": self.restarts,
            "recovered": self.recovered,
            "queue_depth": self.depth,
        }
