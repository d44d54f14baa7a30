"""Trace-driven simulation: configuration, engine, metrics, experiments."""

from repro.sim.artifact_cache import (
    ArtifactCache,
    resolve_cache,
    trace_fingerprint,
)
from repro.sim.columnar import ColumnarAccesses
from repro.sim.config import SimulationConfig, paper_config
from repro.sim.engine import (
    ExecutionRunResult,
    evaluate_local_stream,
    run_global_execution,
)
from repro.sim.experiment import ApplicationResult, ExperimentRunner
from repro.sim.idle_periods import count_opportunities, stream_gaps
from repro.sim.metrics import PredictionStats
from repro.sim.parallel import (
    CellProgress,
    CellResult,
    ExperimentCell,
    resolve_jobs,
    stderr_progress,
)
from repro.sim.sweep import SweepPoint, render_sweep, sweep
from repro.sim.tracing import (
    SimTraceEvent,
    TraceRecorder,
    read_jsonl,
    summarize,
    write_jsonl,
)

__all__ = [
    "ApplicationResult",
    "ArtifactCache",
    "ColumnarAccesses",
    "resolve_cache",
    "trace_fingerprint",
    "SimTraceEvent",
    "TraceRecorder",
    "read_jsonl",
    "summarize",
    "write_jsonl",
    "CellProgress",
    "CellResult",
    "ExecutionRunResult",
    "ExperimentCell",
    "ExperimentRunner",
    "PredictionStats",
    "SweepPoint",
    "SimulationConfig",
    "count_opportunities",
    "evaluate_local_stream",
    "paper_config",
    "render_sweep",
    "resolve_jobs",
    "stderr_progress",
    "sweep",
    "run_global_execution",
    "stream_gaps",
]
