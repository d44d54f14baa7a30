"""The paper's contribution: PCAP and the Global Shutdown Predictor."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".confidence": ("ConfidenceEstimator",),
    ".global_predictor": ("GlobalDecision", "GlobalShutdownPredictor"),
    ".history": ("IdleHistoryRegister",),
    ".pcap": ("PCAPPredictor",),
    ".persistence": (
        "dump_table", "load_table", "load_table_file", "save_table_file",
    ),
    ".signature": (
        "SIGNATURE_BITS", "SIGNATURE_MASK", "PathSignature", "fold_pc",
        "signature_of_path",
    ),
    ".table": ("PredictionTable", "TableStats", "storage_bytes"),
    ".variants": (
        "PAPER_HISTORY_LENGTH", "PCAPVariant", "PCAPVariantConfig", "pcap_a",
        "pcap_c", "pcap_f", "pcap_fh", "pcap_h", "pcap_p",
    ),
})

# ``pcap`` is also a submodule's name, so it is bound eagerly (see
# :mod:`repro._lazy`).
from repro.core.variants import pcap  # noqa: E402

__all__ += ["pcap"]
