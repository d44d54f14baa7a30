"""PCAP — the Program-Counter Access Predictor (paper §3–§4).

Runtime behaviour (Figure 4):

1. Each process keeps a 4-byte *current signature*.  After an idle period
   longer than the breakeven time, the PC of the first I/O **overwrites**
   the signature; each subsequent I/O's PC is arithmetically added.
2. After every update the signature (extended with the optional history
   bits and file descriptor) is looked up in the application's prediction
   table.  A match predicts a long idle period: the disk is shut down
   once the sliding wait-window passes with no further I/O.
3. No match implies "no idle"; the backup timeout predictor covers the
   period instead (§4.3) — the only time the timeout overrides PCAP.
4. When an idle period longer than breakeven actually ends and its
   signature was not in the table, the signature is recorded (training).

One :class:`PCAPPredictor` instance is attached to one process; the
:class:`~repro.core.table.PredictionTable` is shared per *application*
(across processes and, with table reuse, across executions — §4.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional

from repro.core.confidence import ConfidenceEstimator
from repro.core.history import IdleHistoryRegister
from repro.core.signature import PathSignature
from repro.core.table import PredictionTable
from repro.errors import ConfigurationError
from repro.predictors.base import (
    IdleClass,
    IdleFeedback,
    LocalPredictor,
    PredictorSource,
    ShutdownIntent,
)
from repro._tracing import HistoryUpdate, SignatureLookup, TableTrain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.filter import DiskAccess


class PCAPPredictor(LocalPredictor):
    """Per-process PCAP with optional history / file-descriptor context.

    Parameters
    ----------
    table:
        The application's shared prediction table.
    wait_window:
        Sliding wait-window (§4.1.1); the delay between a matched
        signature and the actual shutdown.  Paper value: 1 s.
    backup_timeout:
        Backup timeout predictor (§4.3); ``None`` disables the backup.
        Paper value: 10 s.
    history_length:
        Length of the idle-period history bit-vector (PCAPh, §4.1.2);
        ``None`` disables history.  Paper value: 6.
    use_file_descriptor:
        Append the triggering I/O's fd to the table key (PCAPf, §4.1.2).
    confidence:
        Optional :class:`ConfidenceEstimator` gating predictions (the
        PCAPc extension; not part of the paper's design).
    """

    def __init__(
        self,
        table: PredictionTable,
        *,
        wait_window: float = 1.0,
        backup_timeout: Optional[float] = 10.0,
        history_length: Optional[int] = None,
        use_file_descriptor: bool = False,
        confidence: Optional[ConfidenceEstimator] = None,
    ) -> None:
        if wait_window < 0:
            raise ConfigurationError("wait window must be non-negative")
        if backup_timeout is not None and backup_timeout <= 0:
            raise ConfigurationError("backup timeout must be positive")
        self.table = table
        self.wait_window = wait_window
        self.backup_timeout = backup_timeout
        self.use_file_descriptor = use_file_descriptor
        self.confidence = confidence
        self._signature = PathSignature()
        self._history = (
            IdleHistoryRegister(history_length) if history_length else None
        )
        #: Key in effect when the current idle gap began — the training
        #: target if that gap turns out to be long.
        self._pending_key: Optional[Hashable] = None
        #: Whether the standing intent is a primary (table-match) shutdown;
        #: used to train the confidence estimator on actual outcomes.
        self._pending_primary = False
        # Intents are immutable and parameter-determined: build each once
        # instead of once per access (the engine hot path).
        self._primary_intent = ShutdownIntent(
            delay=wait_window, source=PredictorSource.PRIMARY
        )
        self._backup = (
            ShutdownIntent.never()
            if backup_timeout is None
            else ShutdownIntent(
                delay=backup_timeout, source=PredictorSource.BACKUP
            )
        )

    @property
    def name(self) -> str:  # type: ignore[override]
        suffix = ""
        if self.use_file_descriptor:
            suffix += "f"
        if self._history is not None:
            suffix += "h"
        if self.confidence is not None:
            suffix += "c"
        return "PCAP" + suffix

    @property
    def history_length(self) -> Optional[int]:
        return self._history.length if self._history else None

    def begin_execution(self, start_time: float) -> None:
        self._signature.reset()
        if self._history is not None:
            self._history.clear()
        self._pending_key = None
        self._pending_primary = False

    def initial_intent(self, start_time: float) -> ShutdownIntent:
        return self._backup_intent()

    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        signature = self._signature.observe(access.pc)
        # Inlined _make_key: this runs once per disk access and the key
        # shape is fixed at construction time.
        history = self._history
        if history is None:
            key: Hashable = (
                (signature, access.fd)
                if self.use_file_descriptor
                else signature
            )
        elif self.use_file_descriptor:
            key = (signature, history.as_int(), access.fd)
        else:
            key = (signature, history.as_int())
        self._pending_key = key
        matched = self.table.lookup(key)
        if self.tracer is not None:
            self.tracer.emit(
                SignatureLookup(
                    time=access.time,
                    pid=self.trace_pid if self.trace_pid is not None else access.pid,
                    key=key,
                    hit=matched,
                )
            )
        if matched and (self.confidence is None or self.confidence.allows(key)):
            self._pending_primary = True
            return self._primary_intent
        self._pending_primary = False
        return self._backup

    def on_idle_end(self, feedback: IdleFeedback) -> None:
        if feedback.idle_class == IdleClass.SUB_WINDOW:
            # Filtered at run time: the wait-window cancelled any pending
            # shutdown and the path keeps accumulating (§4.1.1).
            self._pending_primary = False
            return
        if feedback.idle_class == IdleClass.LONG:
            if self._pending_key is not None:
                inserted = self.table.train(self._pending_key)
                if self.tracer is not None:
                    self.tracer.emit(
                        TableTrain(
                            time=feedback.end,
                            pid=self.trace_pid or 0,
                            key=self._pending_key,
                            inserted=inserted,
                        )
                    )
                if self.confidence is not None:
                    self.confidence.record(self._pending_key, long_idle=True)
            # Prediction verified (or training complete): path restarts,
            # and the trained key is consumed — a further idle period with
            # no intervening I/O (the trailing gap) must not retrain it.
            self._signature.restart()
            self._pending_key = None
        else:  # SHORT: a shutdown issued here would have been a miss.
            if (
                self.confidence is not None
                and self._pending_primary
                and self._pending_key is not None
            ):
                self.confidence.record(self._pending_key, long_idle=False)
        if self._history is not None:
            self._history.record(feedback.idle_class)
            if self.tracer is not None:
                self.tracer.emit(
                    HistoryUpdate(
                        time=feedback.end,
                        pid=self.trace_pid or 0,
                        bit=1 if feedback.idle_class == IdleClass.LONG else 0,
                        register=self._history.as_int(),
                    )
                )
        self._pending_primary = False

    def _make_key(self, signature: int, access: DiskAccess) -> Hashable:
        if self._history is None and not self.use_file_descriptor:
            return signature
        key: tuple = (signature,)
        if self._history is not None:
            key += (self._history.as_int(),)
        if self.use_file_descriptor:
            key += (access.fd,)
        return key

    def _backup_intent(self) -> ShutdownIntent:
        return self._backup
