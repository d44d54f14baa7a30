"""Trace-driven simulation: configuration, engine, metrics, experiments."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".artifact_cache": ("ArtifactCache", "resolve_cache", "trace_fingerprint"),
    ".columnar": ("ColumnarAccesses",),
    ".config": ("SimulationConfig", "paper_config"),
    ".engine": (
        "ExecutionRunResult", "evaluate_local_stream", "run_global_execution",
    ),
    "..config": ("resolve_jobs",),
    ".experiment": ("ApplicationResult", "ExperimentRunner"),
    ".idle_periods": ("count_opportunities", "stream_gaps"),
    ".metrics": ("PredictionStats",),
    ".resilience": (
        "CellProgress", "CellResult", "ExperimentCell", "stderr_progress",
    ),
    ".sweep": ("SweepPoint", "render_sweep"),
    ".tracing": (
        "SimTraceEvent", "TraceRecorder", "read_jsonl", "summarize",
        "write_jsonl",
    ),
})

# ``sweep`` is also a submodule's name, so it is bound eagerly (see
# :mod:`repro._lazy`).
from repro.sim.sweep import sweep  # noqa: E402

__all__ += ["sweep"]
