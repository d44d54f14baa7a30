"""Q-DPM — tabular model-free Q-learning over idle-gap states.

Li et al. ("Online Learning for Dynamic Power Management",
arXiv:0710.4739) frame shutdown policy selection as a reinforcement
learning problem: the controller observes a discretized idle-history
state, picks a shutdown delay from a small action ladder, and updates a
Q-table from the energy outcome of each finished gap.

This implementation keeps the discrete tabular shape but adapts it to
the library's event-driven predictor protocol:

* **State** — the idle classes of the last two finished (non
  sub-window) gaps of the owning process, each encoded as
  ``0`` (no history yet), ``1`` (short) or ``2`` (long): nine states
  plus the cold-start corner.
* **Actions** — a four-rung delay ladder derived from the simulation
  configuration: shut down at the wait-window (the aggressive
  PCAP-style rung), at the breakeven time (the ski-rental rung), at the
  backup timeout (the conservative TP rung), or never.
* **Reward** — computed from the realized gap length against the armed
  delay: ``+1`` for a shutdown whose device-off window beats breakeven,
  ``-1`` for a premature fire or a long gap slept through, ``+0.5`` for
  correctly staying up through a short gap (see :meth:`QDPMVariant.reward`).
* **Exploration** — ε-greedy, but the coin is a *counter-indexed
  splitmix64 hash stream* rather than a stateful RNG object: draw ``n``
  is a pure function of ``(seed, n)``.  Because the engine's call order
  is deterministic, every execution substrate (serial, pooled, fused,
  store-backed, resilient retry) consumes the identical stream — the
  bit-identity contract the fused kernel and the artifact cache rely
  on.

The Q-table is shared per *application* (the PCAP pattern, §4.2): all
processes and executions of one experiment cell learn into the same
table, and learning persists across executions within the cell.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.config import SimulationConfig
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

_MASK64 = (1 << 64) - 1

#: Idle-class encoding of the state tuple components.
_NO_HISTORY = 0
_SHORT = 1
_LONG = 2


def exploration_draw(seed: int, counter: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` — splitmix64 of a counter.

    A pure function of ``(seed, counter)``: no RNG object, no hidden
    state, so replaying the same decision sequence reproduces the same
    draws no matter which execution substrate replays it.
    """
    x = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x / 2.0**64


class QDPMVariant:
    """Application-level Q-DPM state plus a per-process predictor factory.

    Owns the shared Q-table, the action ladder, and the exploration
    draw counter; manufactures the per-process :class:`QDPMPredictor`
    instances bound to it (the :class:`~repro.core.variants.PCAPVariant`
    pattern).
    """

    #: Default hyperparameters (also the bare-name ``QDPM`` spec).
    DEFAULT_EPSILON = 0.1
    DEFAULT_LEARNING_RATE = 0.2
    DEFAULT_DISCOUNT = 0.5
    DEFAULT_SEED = 0

    def __init__(
        self,
        config: SimulationConfig,
        *,
        epsilon: float = DEFAULT_EPSILON,
        learning_rate: float = DEFAULT_LEARNING_RATE,
        discount: float = DEFAULT_DISCOUNT,
        seed: int = DEFAULT_SEED,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError("epsilon must be in [0, 1]")
        if not 0.0 < learning_rate <= 1.0:
            raise ConfigurationError("learning rate must be in (0, 1]")
        if not 0.0 <= discount < 1.0:
            raise ConfigurationError("discount must be in [0, 1)")
        self.epsilon = epsilon
        self.learning_rate = learning_rate
        self.discount = discount
        self.seed = int(seed)
        self.breakeven = config.breakeven
        #: Delay ladder: wait-window, breakeven, backup timeout, never.
        self.actions: tuple[Optional[float], ...] = (
            config.wait_window,
            config.breakeven,
            config.timeout,
            None,
        )
        #: Q-values, keyed by ``(state, action_index)``; absent = 0.0.
        self.q: dict[tuple[tuple[int, int], int], float] = {}
        #: Exploration draws consumed so far (shared across processes so
        #: the stream is a function of global decision order).
        self.draws = 0

    @property
    def name(self) -> str:
        """Report name; hyperparameter overrides are spelled out so
        sweep labels (and therefore artifact-cache variant fingerprints)
        pin the exact configuration."""
        if (
            self.epsilon == self.DEFAULT_EPSILON
            and self.learning_rate == self.DEFAULT_LEARNING_RATE
            and self.discount == self.DEFAULT_DISCOUNT
            and self.seed == self.DEFAULT_SEED
        ):
            return "QDPM"
        return (
            f"QDPM(eps={self.epsilon:g},lr={self.learning_rate:g},"
            f"g={self.discount:g},seed={self.seed})"
        )

    def create_local(self, pid: int) -> "QDPMPredictor":
        """A fresh per-process predictor sharing the application table."""
        return QDPMPredictor(self)

    def on_execution_end(self) -> None:
        """Table-reuse policy at application exit: keep learning."""

    @property
    def table_size(self) -> int:
        """Number of populated (state, action) Q-entries."""
        return len(self.q)

    # ------------------------------------------------------------------
    # Learning machinery (called by the per-process predictors)
    # ------------------------------------------------------------------

    def choose(self, state: tuple[int, int]) -> int:
        """ε-greedy action for ``state``; one deterministic draw.

        A single uniform draw decides both whether to explore and, if
        so, which rung to take: ``u < ε`` explores rung
        ``int(u / ε · |actions|)``, otherwise the greedy argmax wins
        (lowest rung index breaking ties).
        """
        u = exploration_draw(self.seed, self.draws)
        self.draws += 1
        if self.epsilon > 0.0 and u < self.epsilon:
            return min(
                int(u / self.epsilon * len(self.actions)),
                len(self.actions) - 1,
            )
        best_index = 0
        best_value = self.q.get((state, 0), 0.0)
        for index in range(1, len(self.actions)):
            value = self.q.get((state, index), 0.0)
            if value > best_value:
                best_index, best_value = index, value
        return best_index

    def reward(self, action: int, length: float) -> float:
        """Energy-shaped reward of ``action``'s delay for a gap ``length``."""
        delay = self.actions[action]
        if delay is None:
            # Stayed up: right for short gaps, a missed opportunity for
            # long ones.
            return 0.5 if length <= self.breakeven else -1.0
        if length > delay:
            # The timer fired; did the device-off window pay for the
            # spin-up?
            return 1.0 if length - delay > self.breakeven else -1.0
        # The timer never fired.  Correct restraint on a short gap; too
        # timid if the gap was long (only reachable for rungs above
        # breakeven).
        return 0.5 if length <= self.breakeven else -0.5

    def update(
        self,
        state: tuple[int, int],
        action: int,
        reward: float,
        next_state: tuple[int, int],
    ) -> None:
        """One tabular Q-learning step,
        ``Q[s,a] += α·(r + γ·max_a' Q[s',a'] − Q[s,a])``."""
        best_next = max(
            self.q.get((next_state, index), 0.0)
            for index in range(len(self.actions))
        )
        key = (state, action)
        current = self.q.get(key, 0.0)
        self.q[key] = current + self.learning_rate * (
            reward + self.discount * best_next - current
        )


class QDPMPredictor(LocalPredictor):
    """Per-process Q-DPM: idle-history state plus the armed action.

    The action chosen at each decision point stands until the next
    finished gap delivers its outcome; sub-window gaps are invisible to
    the state (the paper's §4.1.2 filter) but still re-arm the standing
    intent.
    """

    name = "QDPM"

    def __init__(self, shared: QDPMVariant) -> None:
        self.shared = shared
        self._state: tuple[int, int] = (_NO_HISTORY, _NO_HISTORY)
        self._action: Optional[int] = None
        self._intents: tuple[ShutdownIntent, ...] = tuple(
            ShutdownIntent(delay=delay, source=PredictorSource.PRIMARY)
            if delay is not None
            else ShutdownIntent.never()
            for delay in shared.actions
        )

    def _arm(self) -> ShutdownIntent:
        self._action = self.shared.choose(self._state)
        return self._intents[self._action]

    def initial_intent(self, start_time: float) -> ShutdownIntent:
        """Choose the first action from the cold-start state."""
        return self._arm()

    def on_access(self, access: DiskAccess) -> ShutdownIntent:
        """Re-issue the standing intent (actions are chosen per gap)."""
        if self._action is None:
            return self._arm()
        return self._intents[self._action]

    def on_idle_end(self, feedback: IdleFeedback) -> None:
        """Learn from the finished gap and choose the next action."""
        if feedback.idle_class == IdleClass.SUB_WINDOW:
            # Filtered at run time (§4.1.2): invisible to state and
            # learning; the armed action keeps standing.
            return
        if self._action is not None:
            reward = self.shared.reward(self._action, feedback.length)
            code = (
                _LONG if feedback.idle_class == IdleClass.LONG else _SHORT
            )
            next_state = (code, self._state[0])
            self.shared.update(self._state, self._action, reward, next_state)
            self._state = next_state
        self._arm()
