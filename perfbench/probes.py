"""Spans and counters recorded around calls into ``repro``'s layers.

The program itself carries no benchmark spans: the ``install_*_probes``
functions replace each layer's public entry point
*where its callers look it up* (``repro.sim.experiment.filter_execution``,
not only ``repro.cache.filter.filter_execution``) with a wrapper that
records a span and, at the same boundary, the layer's counts.  Spans are
kept in memory and written out once the run ends.

Both the classic per-cell entry points and the fused kernel's are
wrapped, so a change of path shows as time moving between
``sim.engine`` and ``sim.fused`` rather than vanishing.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Optional

from benchmath import self_time_by_name


class SpanRecorder:
    """In-memory span list: ``[name, start, end, parent]`` rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def first_time(self, name: str, key) -> bool:
        """Record ``key`` under ``name``; True if it was not seen before."""
        with self._lock:
            seen = self.distinct.setdefault(name, set())
            if key in seen:
                return False
            seen.add(key)
            return True

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


After = Callable[[SpanRecorder, tuple, dict, object], None]


def patch(owner, attr: str, recorder: SpanRecorder, span: str,
          after: Optional[After] = None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = recorder.begin(span)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)


def patch_generator(owner, attr: str, recorder: SpanRecorder, span: str,
                    after_item: Optional[Callable] = None) -> None:
    """Like :func:`patch` for a generator: one span per item produced."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        iterator = original(*args, **kwargs)
        while True:
            index = recorder.begin(span)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.end(index)
            if after_item is not None:
                after_item(recorder, item)
            yield item

    setattr(owner, attr, wrapper)


# -- counters recorded at the layer boundaries --------------------------

def _count_suite(rec, args, kwargs, suite) -> None:
    for trace in suite.values():
        for execution in trace.executions:
            _count_execution(rec, execution)


def _count_execution(rec, execution) -> None:
    rec.count("workloads.executions")
    rec.count("workloads.events", len(execution.events))


def _count_filter(rec, args, kwargs, result) -> None:
    rec.count("cache.filter_calls")
    if rec.first_time("cache.filter",
                      (result.application, result.execution_index)):
        rec.count("cache.disk_accesses", len(result.accesses))


def _counter(name: str) -> After:
    def after(rec, args, kwargs, result) -> None:
        rec.count(name)
    return after


def _count_cell(mode: str) -> After:
    def after(rec, args, kwargs, result) -> None:
        rec.count("sim.experiment.cells")
        rec.first_time("sim.experiment.cell",
                       (mode, result.predictor, result.application))
    return after


def _count_fused_cells(rec, args, kwargs, results) -> None:
    for result in results:
        _count_cell("global")(rec, args, kwargs, result)


def _count_cache_get(rec, args, kwargs, result) -> None:
    rec.count("sim.artifact_cache.gets")
    if result[0]:
        rec.count("sim.artifact_cache.hits")


def _count_ledger(rec, args, kwargs, ledger) -> None:
    rec.count("sim.resilience.cells", len(ledger.outcomes))
    rec.count("sim.resilience.retries", len(ledger.retries))
    rec.count("sim.resilience.failed", len(ledger.failures))


def _count_compaction(rec, args, kwargs, segment) -> None:
    if segment is not None:
        rec.count("serve.state.compactions")


def install_batch_probes(rec: SpanRecorder) -> None:
    """Wrap the layers a batch ``repro`` command runs through."""
    import repro.cli as cli
    import repro.sim.artifact_cache as artifact_cache
    import repro.sim.experiment as experiment
    import repro.sim.fused as fused
    import repro.sim.resilience as resilience
    import repro.traces.store as store
    import repro.workloads.streaming as streaming

    patch(cli, "build_suite", rec, "workloads.build", _count_suite)
    patch_generator(streaming, "iter_suite_executions", rec,
                    "workloads.build", _count_execution)
    patch(experiment, "filter_execution", rec, "cache.filter", _count_filter)
    patch(experiment, "run_global_execution", rec, "sim.engine.replay",
          _counter("sim.engine.replays"))
    patch(experiment, "evaluate_local_stream", rec, "sim.engine.replay",
          _counter("sim.engine.replays"))
    patch(fused, "build_replay_tape", rec, "sim.fused.tape")
    patch(fused, "replay_execution", rec, "sim.fused.replay",
          _counter("sim.fused.replays"))
    patch(fused, "run_fused_application", rec, "sim.experiment.cell",
          _count_fused_cells)
    runner = experiment.ExperimentRunner
    patch(runner, "run_global", rec, "sim.experiment.cell",
          _count_cell("global"))
    patch(runner, "run_local", rec, "sim.experiment.cell",
          _count_cell("local"))
    cache = artifact_cache.ArtifactCache
    patch(cache, "get", rec, "sim.artifact_cache.get", _count_cache_get)
    patch(cache, "get_trace", rec, "sim.artifact_cache.get")
    patch(cache, "put", rec, "sim.artifact_cache.put")
    patch(cache, "put_trace", rec, "sim.artifact_cache.put")
    patch(store.StoreWriter, "write_execution", rec, "traces.store.pack")
    patch(store.StoreWriter, "close", rec, "traces.store.pack")
    patch(resilience, "run_cells", rec, "sim.resilience.run", _count_ledger)
    for name, value in list(vars(cli).items()):
        if callable(value) and getattr(value, "__module__", "").startswith(
                "repro.analysis"):
            patch(cli, name, rec, "analysis")


def install_client_probes(rec: SpanRecorder) -> None:
    """Wrap the feed client's calls (benchmark process, client threads)."""
    import repro.serve.client as client

    patch(client.ServeClient, "submit_execution", rec, "serve.client.submit")
    patch(client, "encode_event_rows", rec, "traces.store.encode")


def install_worker_probes(rec: SpanRecorder) -> None:
    """Wrap an in-process shard worker's layers (the worker split)."""
    import repro.serve.state as state
    import repro.serve.worker as worker

    patch(worker.ShardWorker, "process", rec, "serve.worker")
    patch(worker, "decode_event_rows", rec, "traces.store.decode")
    patch(worker, "filter_execution", rec, "cache.filter", _count_filter)
    patch(worker, "run_global_execution", rec, "sim.engine.replay",
          _counter("sim.engine.replays"))
    patch(state.ShardJournal, "record_execution", rec, "serve.state.append")
    patch(state.ShardJournal, "compact", rec, "serve.state.compact",
          _count_compaction)


# -- per-layer metrics ----------------------------------------------------

#: Span name -> reported self-time metric.
LAYER_TIMES = {
    "cli.import": "cli.import_s",
    "workloads.build": "workloads.build_s",
    "cache.filter": "cache.filter_s",
    "sim.engine.replay": "sim.engine.replay_s",
    "sim.fused.tape": "sim.fused.tape_s",
    "sim.fused.replay": "sim.fused.replay_s",
    "sim.experiment.cell": "sim.experiment.self_s",
    "sim.artifact_cache.get": "sim.artifact_cache.get_s",
    "sim.artifact_cache.put": "sim.artifact_cache.put_s",
    "traces.store.pack": "traces.store.pack_s",
    "traces.store.encode": "traces.store.encode_s",
    "traces.store.decode": "traces.store.decode_s",
    "sim.resilience.run": "sim.resilience.run_s",
    "analysis": "analysis.self_s",
    "serve.worker": "serve.worker.self_s",
    "serve.state.append": "serve.state.append_s",
    "serve.state.compact": "serve.state.compact_s",
}

BATCH_COUNTS = (
    "workloads.executions", "workloads.events", "cache.filter_calls",
    "cache.disk_accesses", "sim.engine.replays", "sim.fused.replays",
    "sim.experiment.cells", "sim.artifact_cache.gets", "sim.resilience.cells",
    "sim.resilience.retries", "sim.resilience.failed",
)


def layer_times(spans: list, prefix: str = "") -> dict[str, float]:
    """Self time per layer metric, for layers entered at least once."""
    return {
        prefix + LAYER_TIMES[name]: seconds
        for name, seconds in self_time_by_name(spans).items()
        if name in LAYER_TIMES
    }


def ratios(dump: dict) -> dict[str, float]:
    """Useful-outcome ratios whose base is non-zero."""
    counts, distinct = dump["counts"], dump["distinct"]
    out = {}
    if distinct.get("cache.filter"):
        out["cache.filter_repeat_ratio"] = (
            counts["cache.filter_calls"] / distinct["cache.filter"]
        )
    if distinct.get("sim.experiment.cell"):
        out["sim.experiment.cell_repeat_ratio"] = (
            counts["sim.experiment.cells"] / distinct["sim.experiment.cell"]
        )
    if counts.get("sim.artifact_cache.gets"):
        out["sim.artifact_cache.hit_ratio"] = (
            counts.get("sim.artifact_cache.hits", 0)
            / counts["sim.artifact_cache.gets"]
        )
    return out


def batch_layer_metrics(dump: dict, wall: float, prefix: str = "") -> dict:
    """Per-layer metrics of one traced ``repro`` process.

    ``wall`` is the process's wall time seen from outside (interpreter
    start and exit included); whatever no layer span claims is reported
    as ``trace.unattributed_s``, so the layer self times plus that
    remainder add up to ``trace.wall_s``.
    """
    times = layer_times(dump["spans"], prefix)
    metrics = dict(times)
    metrics[prefix + "trace.wall_s"] = wall
    metrics[prefix + "trace.unattributed_s"] = wall - sum(times.values())
    if not prefix:
        for name in BATCH_COUNTS:
            metrics[name] = dump["counts"].get(name, 0)
        metrics.update(ratios(dump))
    return metrics


def span_durations(spans: list, name: str) -> list[float]:
    return [end - start for span_name, start, end, _ in spans
            if span_name == name]

