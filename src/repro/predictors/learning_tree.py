"""Learning Tree (LT) — Chung, Benini & De Micheli's adaptive learning
tree (ICCAD 1999), the paper's strongest prior-work baseline (§2.1, §6).

LT discretizes idle periods and learns which *sequences* of idle-period
classes precede a long idle period: in Figure 2's example, two
shorter-than-breakeven periods followed by a long one teach the tree that
the pattern "short, short" predicts "long".

Implementation notes (documented deviations):

* The original tree manages multiple power states; following the paper's
  study we only predict shutdowns, so idle periods discretize into two
  classes — ``0`` (between wait-window and breakeven) and ``1`` (longer
  than breakeven).  Sub-wait-window gaps are filtered, as the paper's
  sliding-window discussion prescribes.
* The tree is represented as a map from history *suffixes* (up to the
  history length, paper value 8) to saturating 2-bit counters trained
  toward the observed next class.  Prediction walks from the longest
  matching suffix down and uses the first node with a confident opinion —
  equivalent to finding the deepest matching path in the adaptive tree.
* Like the paper's setup, LT gets the same wait-window and backup timeout
  as PCAP, "allowing a direct comparison", and its tree persists across
  executions (LTa discards it — Figure 10).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.predictors.base import (
    IdleClass,
    IdleFeedback,
    LocalPredictor,
    PredictorSource,
    ShutdownIntent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.filter import DiskAccess

#: History length the paper found best for LT (§6.1).
PAPER_LT_HISTORY = 8

#: 2-bit saturating counter bounds and decision threshold.
_COUNTER_MAX = 3
_COUNTER_MIN = 0
_PREDICT_LONG_AT = 2
_NEW_NODE_VALUE = {True: 1, False: 1}


class LearningTree:
    """Adaptive tree over idle-period class sequences (application level).

    Shared by all processes of one application and, unless discarded,
    across executions.
    """

    def __init__(self, max_depth: int = PAPER_LT_HISTORY) -> None:
        if max_depth <= 0:
            raise ConfigurationError("tree depth must be positive")
        self.max_depth = max_depth
        self._nodes: dict[tuple[int, ...], int] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def predict(self, history: tuple[int, ...]) -> Optional[bool]:
        """Predict the class of the next idle period.

        Returns ``True`` (long), ``False`` (short), or ``None`` when no
        trained path matches (still training — backup's turn).

        The deepest *saturated* node wins (a specific pattern the tree is
        sure about); otherwise the shallowest node decides.  Preferring
        unsaturated deep nodes would let once-seen 8-event patterns — in
        effect coin flips — override well-trained short patterns.
        """
        best: Optional[bool] = None
        for depth in range(min(len(history), self.max_depth), 0, -1):
            suffix = history[-depth:]
            counter = self._nodes.get(suffix)
            if counter is None:
                continue
            if counter in (_COUNTER_MIN, _COUNTER_MAX):
                return counter >= _PREDICT_LONG_AT
            best = counter >= _PREDICT_LONG_AT
        return best

    def train(self, history: tuple[int, ...], outcome_long: bool) -> None:
        """Observe that ``history`` was followed by a long/short period.

        Every suffix of the history (each tree level along the matching
        path) is reinforced toward the outcome; unseen suffixes are grown
        with a weakly-biased initial counter.
        """
        if not history:
            return
        step = 1 if outcome_long else -1
        for depth in range(1, min(len(history), self.max_depth) + 1):
            suffix = history[-depth:]
            counter = self._nodes.get(suffix)
            if counter is None:
                self._nodes[suffix] = _NEW_NODE_VALUE[outcome_long]
            else:
                self._nodes[suffix] = min(
                    _COUNTER_MAX, max(_COUNTER_MIN, counter + step)
                )

    def clear(self) -> None:
        self._nodes.clear()


class LTPredictor(LocalPredictor):
    """Per-process LT front-end sharing an application-level tree."""

    name = "LT"

    def __init__(
        self,
        tree: LearningTree,
        *,
        wait_window: float = 1.0,
        backup_timeout: Optional[float] = 10.0,
    ) -> None:
        if wait_window < 0:
            raise ConfigurationError("wait window must be non-negative")
        if backup_timeout is not None and backup_timeout <= 0:
            raise ConfigurationError("backup timeout must be positive")
        self.tree = tree
        self.wait_window = wait_window
        self.backup_timeout = backup_timeout
        self._history: deque[int] = deque(maxlen=tree.max_depth)

    def begin_execution(self, start_time: float) -> None:
        self._history.clear()

    def initial_intent(self, start_time: float) -> ShutdownIntent:
        return self._backup_intent()

    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        prediction = self.tree.predict(tuple(self._history))
        if prediction is True:
            return ShutdownIntent(
                delay=self.wait_window, source=PredictorSource.PRIMARY
            )
        # Predicted short (or still training): the disk stays on for now
        # and the backup timeout covers the period — a "short" prediction
        # only suppresses the *immediate* shutdown, it cannot pin the
        # disk on through what turns out to be a long idle period.
        return self._backup_intent()

    def on_idle_end(self, feedback: IdleFeedback) -> None:
        if feedback.idle_class == IdleClass.SUB_WINDOW:
            return
        outcome_long = feedback.idle_class == IdleClass.LONG
        self.tree.train(tuple(self._history), outcome_long)
        self._history.append(1 if outcome_long else 0)

    def _backup_intent(self) -> ShutdownIntent:
        if self.backup_timeout is None:
            return ShutdownIntent.never()
        return ShutdownIntent(
            delay=self.backup_timeout, source=PredictorSource.BACKUP
        )


class LTVariant:
    """Application-level LT state + per-process factory (mirrors
    :class:`~repro.core.variants.PCAPVariant`)."""

    def __init__(
        self,
        *,
        max_depth: int = PAPER_LT_HISTORY,
        wait_window: float = 1.0,
        backup_timeout: Optional[float] = 10.0,
        reuse_tree: bool = True,
    ) -> None:
        self.tree = LearningTree(max_depth=max_depth)
        self.wait_window = wait_window
        self.backup_timeout = backup_timeout
        self.reuse_tree = reuse_tree

    @property
    def name(self) -> str:
        return "LT" if self.reuse_tree else "LTa"

    def create_local(self, pid: int) -> LTPredictor:
        return LTPredictor(
            self.tree,
            wait_window=self.wait_window,
            backup_timeout=self.backup_timeout,
        )

    def on_execution_end(self) -> None:
        if not self.reuse_tree:
            self.tree.clear()

    @property
    def table_size(self) -> int:
        return len(self.tree)
