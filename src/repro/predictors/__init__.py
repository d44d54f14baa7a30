"""Shutdown predictors: the protocol, baselines, and classic schemes."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".adaptive_timeout": ("AdaptiveTimeoutPredictor",),
    ".always_on": ("AlwaysOnPolicy", "AlwaysOnPredictor"),
    ".base": (
        "IdleClass", "IdleFeedback", "LocalPredictor", "OmniscientPolicy",
        "PredictorSource", "ShutdownIntent", "classify_gap",
    ),
    ".exponential_average": ("ExponentialAveragePredictor",),
    ".learning_tree": (
        "PAPER_LT_HISTORY", "LearningTree", "LTPredictor", "LTVariant",
    ),
    ".oracle": ("OraclePolicy",),
    ".previous_busy": ("PreviousBusyPredictor",),
    ".stochastic": ("StochasticTimeoutPredictor",),
    ".registry": (
        "KNOWN_PREDICTORS", "PredictorSpec", "at_spec", "base_spec",
        "exp_spec", "lt_spec", "make_spec", "oracle_spec", "pb_spec",
        "pcap_spec", "st_spec", "tp_spec",
    ),
    ".timeout": ("PAPER_TIMEOUT", "TimeoutPredictor"),
})
