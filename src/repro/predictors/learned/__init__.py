"""Learning-augmented and adaptive shutdown predictors.

The paper's claim is that PC-based prediction beats timeout- and
heuristic-based shutdown policies.  This package supplies the modern
field that claim is measured against (see ``docs/predictors.md``):

* :mod:`repro.predictors.learned.qdpm` — **Q-DPM**, tabular model-free
  Q-learning over a discretized idle-gap state with deterministic
  seeded exploration (Li et al., "Online Learning for DPM",
  arXiv:0710.4739);
* :mod:`repro.predictors.learned.ski_rental` — **LearnedSkiRental**,
  a learning-augmented ski-rental policy consuming PCAP's per-PC table
  as its advice source and hedging with a robustness parameter λ
  (Antoniadis et al., arXiv:2110.13116);
* :mod:`repro.predictors.learned.feedback` — **PI**, a
  control-theoretic feedback controller steering its timeout so the
  observed slowdown tracks a setpoint (Cerf et al., arXiv:2107.02426;
  implementation idiom of nrm-legacy's ``ddcmpolicy``).

All three are ordinary :class:`~repro.predictors.base.LocalPredictor`
families with application-level shared state (the PCAP pattern), so the
fused kernel's generic lane, the fleet engine, and every execution
substrate drive them unchanged and bit-identically.  Determinism is a
hard contract: no wall clock, no global RNG — Q-DPM's exploration is a
counter-indexed hash stream, so equal seeds give equal results across
serial, pooled, fused, store-backed, and crash-retried runs.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".feedback": ("PIControllerVariant", "PIFeedbackPredictor"),
    ".qdpm": ("QDPMPredictor", "QDPMVariant", "exploration_draw"),
    ".ski_rental": (
        "LearnedSkiRentalPredictor", "LearnedSkiRentalVariant",
        "multistate_schedule",
    ),
})
