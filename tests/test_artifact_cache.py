"""Persistent artifact cache: addressing, recovery, and bit-identity."""

from __future__ import annotations

import dataclasses
import multiprocessing

import pytest

from repro import faults
from repro.analysis.figures import FIG6_PREDICTORS, build_fig6
from repro.analysis.tables import build_table1
from repro.cache.page_cache import CacheConfig
from repro.config import SimulationConfig
from repro.faults import FaultPlan, FaultSpec
from repro.sim.artifact_cache import (
    CACHE_DIR_ENV_VAR,
    ArtifactCache,
    filter_key,
    resolve_cache,
    table1_key,
    trace_key,
)
from repro.sim.experiment import ExperimentRunner
from repro.sim.resilience import cell_key
from repro.traces.store import (
    MANIFEST_NAME,
    StoreBackedTrace,
    StoreWriter,
    TraceStore,
    pack_trace,
)
from repro.traces.trace import ApplicationTrace
from repro.workloads import build_application, build_suite
from tests.helpers import single_process_execution


def _tiny_suite() -> dict[str, ApplicationTrace]:
    """Two synthetic applications with real idle periods, two executions
    each — enough to exercise filtering, prediction, and energy."""
    suite = {}
    for app, base_pc in (("alpha", 0x1000), ("beta", 0x7000)):
        executions = []
        for index in range(2):
            points = []
            t = 0.0
            for rep in range(6):
                points.append((t, base_pc + (rep % 3) * 8))
                t += 25.0 + index
            executions.append(
                single_process_execution(
                    points,
                    application=app,
                    execution_index=index,
                    end_time=t,
                )
            )
        suite[app] = ApplicationTrace(app, executions)
    return suite


# -------------------------------------------------------------- store --


def test_put_get_roundtrip(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    hit, value = cache.get(key)
    assert not hit and value is None
    cache.put(key, {"payload": [1, 2, 3]})
    hit, value = cache.get(key)
    assert hit and value == {"payload": [1, 2, 3]}
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.hits == 1


def test_entries_live_under_two_level_layout(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, "x")
    path = cache.path_for(key)
    assert path.exists()
    assert path.parent.name == key[:2]
    # The atomic-publish protocol leaves no temp files behind.
    assert not list(tmp_path.rglob("*.tmp"))


def test_keys_are_content_addressed():
    fingerprint = "ab" * 20
    base = CacheConfig()
    key = filter_key(fingerprint, 0, base)
    assert key == filter_key(fingerprint, 0, CacheConfig())
    # Any determining input changes the key: execution, fingerprint,
    # or each field of the cache configuration.
    assert key != filter_key(fingerprint, 1, base)
    assert key != filter_key("cd" * 20, 0, base)
    assert key != filter_key(
        fingerprint, 0, CacheConfig(capacity_bytes=512 * 1024)
    )
    assert key != filter_key(fingerprint, 0, CacheConfig(block_size=8192))
    assert key != filter_key(fingerprint, 0, CacheConfig(flush_interval=60.0))
    # Trace keys vary with application and scale.
    assert trace_key("alpha", 1.0) != trace_key("alpha", 0.5)
    assert trace_key("alpha", 1.0) != trace_key("beta", 1.0)


def test_corrupted_entry_recovers(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, [1, 2, 3])
    cache.path_for(key).write_bytes(b"\x00garbage, not a pickle")
    hit, value = cache.get(key)
    assert not hit and value is None
    assert cache.stats.corrupt == 1
    # The broken entry is gone, and the recompute's put heals the cache.
    assert not cache.path_for(key).exists()
    cache.put(key, [1, 2, 3])
    assert cache.get(key) == (True, [1, 2, 3])


def test_truncated_entry_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, list(range(1000)))
    blob = cache.path_for(key).read_bytes()
    cache.path_for(key).write_bytes(blob[: len(blob) // 2])
    assert cache.get(key) == (False, None)
    assert cache.stats.corrupt == 1


def test_truncated_entry_quarantined_and_recomputed(tmp_path):
    """Hardened read path: a published entry truncated mid-payload is a
    miss, never an exception — the entry is renamed aside (quarantined)
    and the recompute heals the cache."""
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, list(range(1000)))
    path = cache.path_for(key)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert cache.get(key) == (False, None)
    cache.put(key, list(range(1000)))
    assert cache.stats.corrupt == 1
    assert cache.stats.quarantined == 1
    # The corrupt payload survives for inspection; the key was healed.
    aside = path.with_name(path.name + ".corrupt")
    assert aside.exists() and aside.read_bytes() == blob[: len(blob) // 2]
    assert cache.get(key) == (True, list(range(1000)))


def test_corrupt_read_fault_site_recovers(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, list(range(500)))
    plan = FaultPlan([FaultSpec(site="cache.corrupt-read", at=1)])
    with faults.injected(plan):
        hit, value = cache.get(key)
    assert not hit and value is None
    assert cache.stats.quarantined == 1
    assert len(plan.fired) == 1
    # A missing entry never consumes the fault counter.
    other = FaultPlan([FaultSpec(site="cache.corrupt-read", at=1)])
    with faults.injected(other):
        assert cache.get(trace_key("missing", 1.0)) == (False, None)
    assert other.fired == []


def test_torn_write_fault_site_recovers(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    plan = FaultPlan([FaultSpec(site="cache.torn-write", at=1)])
    with faults.injected(plan):
        cache.put(key, list(range(500)))
    # The torn entry was published; the next read quarantines it and the
    # recompute's put rewrites a good copy.
    assert cache.get(key) == (False, None)
    cache.put(key, list(range(500)))
    assert cache.stats.corrupt == 1
    assert cache.get(key) == (True, list(range(500)))


@pytest.mark.parametrize("blob", [
    # A reduce whose callable is an int: TypeError.
    b"\x80\x04K\x01K\x02\x85R.",
    # BINBYTES8 of 2**63 + 5 bytes: OverflowError.
    b"\x80\x04\x8e" + (2**63 + 5).to_bytes(8, "little") + b"ab",
    # BINUNICODE8 of 2**40 bytes: MemoryError (nothing is allocated).
    b"\x80\x04\x8d" + (2**40).to_bytes(8, "little") + b"ab",
], ids=["type-error", "overflow-error", "memory-error"])
def test_any_unpickling_failure_is_a_quarantined_miss(tmp_path, blob):
    """Corrupt bytes can make the unpickler raise almost anything; every
    such entry is a miss, moved aside, never an exception."""
    cache = ArtifactCache(tmp_path)
    key = trace_key("alpha", 1.0)
    cache.put(key, [1, 2, 3])
    path = cache.path_for(key)
    path.write_bytes(blob)
    assert cache.get(key) == (False, None)
    assert cache.stats.quarantined == 1
    assert path.with_name(path.name + ".corrupt").read_bytes() == blob
    assert not path.exists()


# ------------------------------------------------------------- traces --


def _assert_same_events(stored, generated: ApplicationTrace) -> None:
    """A cached trace holds the generated events, types included."""
    rebuilt = stored.materialize()
    assert rebuilt.application == generated.application
    assert len(rebuilt) == len(generated)
    for original, copy in zip(generated, rebuilt):
        assert copy.execution_index == original.execution_index
        assert copy.initial_pids == original.initial_pids
        assert copy.events == original.events
        assert [type(e) for e in copy.events] == [
            type(e) for e in original.events
        ]


def test_trace_store_roundtrip(tmp_path):
    generated = build_application("nedit", scale=0.1)
    cache = ArtifactCache(tmp_path)
    key = trace_key("nedit", 0.1)
    cache.put_trace(key, generated)
    path = cache.trace_path_for(key)
    assert path.is_dir() and path.parent.name == key[:2]
    stored = cache.get_trace(key)
    assert isinstance(stored, StoreBackedTrace)
    _assert_same_events(stored, generated)


def test_build_application_persists_trace(tmp_path):
    cold = ArtifactCache(tmp_path)
    built = build_application("nedit", scale=0.1, cache=cold)
    assert cold.stats.stores == 1
    assert isinstance(built, StoreBackedTrace)
    # A fresh process (modeled by a fresh cache instance) loads the
    # stored trace instead of regenerating, and gets identical events.
    warm = ArtifactCache(tmp_path)
    loaded = build_application("nedit", scale=0.1, cache=warm)
    assert warm.stats.hits == 1
    assert warm.stats.stores == 0
    assert loaded.fingerprint == built.fingerprint
    _assert_same_events(loaded, build_application("nedit", scale=0.1))


def test_corrupt_cached_store_is_quarantined_and_rebuilt(tmp_path):
    generated = build_application("nedit", scale=0.1)
    build_application("nedit", scale=0.1, cache=ArtifactCache(tmp_path))
    cache = ArtifactCache(tmp_path)
    plan = FaultPlan([FaultSpec(site="cache.corrupt-read", at=1)])
    with faults.injected(plan):
        rebuilt = build_application("nedit", scale=0.1, cache=cache)
    # The fault truncated the first column the read touched; the whole
    # store is moved aside, evidence included, and packed afresh.
    assert len(plan.fired) == 1
    assert cache.stats.corrupt == 1 and cache.stats.quarantined == 1
    assert cache.stats.stores == 1
    path = cache.trace_path_for(trace_key("nedit", 0.1))
    aside = path.with_name(path.name + ".corrupt")
    assert aside.is_dir()
    assert list((aside / "columns").glob("*.bin.corrupt"))
    _assert_same_events(rebuilt, generated)
    warm = ArtifactCache(tmp_path)
    assert warm.get_trace(trace_key("nedit", 0.1)) is not None
    assert warm.stats.corrupt == 0


def test_cached_store_with_unknown_code_is_quarantined_and_rebuilt(
    tmp_path,
):
    """A cached store whose column sizes are right but whose I/O row
    carries an unknown access kind code is a corrupt entry: moved aside
    whole and packed afresh from the generated trace."""
    import numpy as np

    generated = build_application("nedit", scale=0.1)
    build_application("nedit", scale=0.1, cache=ArtifactCache(tmp_path))
    path = ArtifactCache(tmp_path).trace_path_for(trace_key("nedit", 0.1))
    etype = np.fromfile(path / "columns" / "etype.bin", dtype=np.uint8)
    kind = np.fromfile(path / "columns" / "kind.bin", dtype=np.uint8)
    kind[int(np.argmax(etype == 0))] = 200
    kind.tofile(path / "columns" / "kind.bin")

    cache = ArtifactCache(tmp_path)
    rebuilt = build_application("nedit", scale=0.1, cache=cache)
    assert cache.stats.corrupt == 1 and cache.stats.quarantined == 1
    assert cache.stats.stores == 1
    assert path.with_name(path.name + ".corrupt").is_dir()
    _assert_same_events(rebuilt, generated)
    warm = ArtifactCache(tmp_path)
    assert warm.get_trace(trace_key("nedit", 0.1)) is not None
    assert warm.stats.corrupt == 0


def test_torn_store_is_quarantined_and_never_returned(tmp_path):
    generated = build_application("nedit", scale=0.1)
    cache = ArtifactCache(tmp_path)
    plan = FaultPlan([FaultSpec(site="cache.torn-write", at=1)])
    with faults.injected(plan):
        built = build_application("nedit", scale=0.1, cache=cache)
    # The torn store was published, found torn by the read-back, moved
    # aside, and packed once more from the generated trace.
    assert len(plan.fired) == 1
    assert cache.stats.stores == 2
    assert cache.stats.corrupt == 1 and cache.stats.quarantined == 1
    path = cache.trace_path_for(trace_key("nedit", 0.1))
    assert path.with_name(path.name + ".corrupt").is_dir()
    assert isinstance(built, StoreBackedTrace)
    assert built.store.path == path
    _assert_same_events(built, generated)


def test_publish_losing_rename_race_keeps_published_store(tmp_path):
    generated = build_application("nedit", scale=0.1)
    cache = ArtifactCache(tmp_path)
    key = trace_key("nedit", 0.1)
    cache.put_trace(key, generated)
    path = cache.trace_path_for(key)
    published = (path.stat().st_ino, (path / MANIFEST_NAME).read_bytes())
    # A second publisher packs the same trace, finds the key taken when
    # it renames, and discards its own copy.
    cache.put_trace(key, generated)
    assert (path.stat().st_ino, (path / MANIFEST_NAME).read_bytes()) == (
        published
    )
    assert cache.stats.stores == 1
    assert not list(tmp_path.rglob("*.tmp"))
    _assert_same_events(cache.get_trace(key), generated)


def test_in_memory_and_store_fingerprints_agree(tmp_path):
    """Equal content has one fingerprint: an in-memory suite and its
    packed store share every filter entry."""
    applications = ("nedit", "mozilla")
    suite = build_suite(scale=0.1, applications=applications)
    with StoreWriter(tmp_path / "suite.store") as writer:
        for trace in suite.values():
            pack_trace(trace, writer)
    store = TraceStore(tmp_path / "suite.store")
    in_memory = ExperimentRunner(
        suite, artifact_cache=ArtifactCache(tmp_path / "cache")
    )
    for name in applications:
        assert in_memory.fingerprint(name) == store.fingerprints()[name]
        in_memory.filtered(name)

    served = ArtifactCache(tmp_path / "cache")
    stored = ExperimentRunner(store.suite(), artifact_cache=served)
    for name in applications:
        stored.filtered(name)
    assert served.stats.misses == 0
    assert served.stats.hits == sum(len(suite[n]) for n in applications)


def test_warm_suite_builds_table1_and_fig6_without_events(
    tmp_path, monkeypatch
):
    """A warm cache hands out store-backed traces, and Table 1 and Fig 6
    read only cached filter results and manifest metadata from them."""
    applications = ("nedit", "mozilla")

    def tables(cache: ArtifactCache):
        suite = build_suite(scale=0.1, applications=applications,
                            cache=cache)
        runner = ExperimentRunner(suite, jobs=1, artifact_cache=cache)
        local = runner.run_matrix(FIG6_PREDICTORS, mode="local")
        return suite, build_table1(runner), build_fig6(local)

    import repro.sim.experiment as experiment

    calls = []
    decode_rows = TraceStore.decode_rows
    filter_execution = experiment.filter_execution
    monkeypatch.setattr(
        TraceStore, "decode_rows",
        lambda *a: calls.append("decode_rows") or decode_rows(*a),
    )
    monkeypatch.setattr(
        experiment, "filter_execution",
        lambda *a: calls.append("filter") or filter_execution(*a),
    )
    _, cold_table1, cold_fig6 = tables(ArtifactCache(tmp_path))
    assert "filter" in calls
    calls.clear()
    suite, warm_table1, warm_fig6 = tables(ArtifactCache(tmp_path))
    assert all(isinstance(t, StoreBackedTrace) for t in suite.values())
    assert calls == []
    assert warm_table1 == cold_table1
    assert warm_fig6 == cold_fig6


# ----------------------------------------------------- runner wiring --


def test_filtered_persists_and_reloads(tmp_path):
    suite = _tiny_suite()
    config = SimulationConfig()
    cold_cache = ArtifactCache(tmp_path)
    cold = ExperimentRunner(suite, config, artifact_cache=cold_cache)
    cold_results = {app: cold.filtered(app) for app in suite}
    assert cold_cache.stats.stores == 4  # 2 apps x 2 executions

    warm_cache = ArtifactCache(tmp_path)
    warm = ExperimentRunner(suite, config, artifact_cache=warm_cache)
    warm_results = {app: warm.filtered(app) for app in suite}
    assert warm_cache.stats.hits == 4
    assert warm_cache.stats.stores == 0
    assert warm_results == cold_results

    # The in-process memo means the cache is consulted once per app.
    warm.filtered("alpha")
    assert warm_cache.stats.hits == 4


def test_cache_config_change_is_a_miss(tmp_path):
    suite = _tiny_suite()
    first = ExperimentRunner(
        suite, SimulationConfig(), artifact_cache=ArtifactCache(tmp_path)
    )
    first.filtered("alpha")

    bigger = SimulationConfig(cache=CacheConfig(capacity_bytes=512 * 1024))
    second_cache = ArtifactCache(tmp_path)
    second = ExperimentRunner(suite, bigger, artifact_cache=second_cache)
    second.filtered("alpha")
    # Same traces, different cache configuration: stale filtered
    # artifacts must never be served.
    assert second_cache.stats.hits == 0
    assert second_cache.stats.misses == 2


def test_results_bit_identical_cache_on_off(tmp_path):
    suite = _tiny_suite()
    config = SimulationConfig()

    off = ExperimentRunner(suite, config)
    cold = ExperimentRunner(
        suite, config, artifact_cache=ArtifactCache(tmp_path)
    )
    warm = ExperimentRunner(
        suite, config, artifact_cache=ArtifactCache(tmp_path)
    )
    for predictor in ("PCAP", "TP", "Base"):
        for app in suite:
            result_off = off.run_global(app, predictor)
            result_cold = cold.run_global(app, predictor)
            result_warm = warm.run_global(app, predictor)
            assert result_cold == result_off
            assert result_warm == result_off


def test_traced_run_identical_with_cache(tmp_path):
    suite = _tiny_suite()
    config = SimulationConfig()
    off = ExperimentRunner(suite, config, tracing=True)
    warm = ExperimentRunner(
        suite,
        config,
        tracing=True,
        artifact_cache=ArtifactCache(tmp_path),
    )
    warm.filtered("alpha")  # populate the on-disk entries
    warm._filtered.clear()  # force the reload path for the actual run
    result_off = off.run_global("alpha", "PCAP")
    result_warm = warm.run_global("alpha", "PCAP")
    assert result_warm.trace_summary == result_off.trace_summary
    assert result_warm.trace_events == result_off.trace_events


def test_parallel_suite_identical_with_cache(tmp_path):
    suite = _tiny_suite()
    config = SimulationConfig()
    serial = ExperimentRunner(suite, config).run_suite("PCAP", jobs=1)
    parallel = ExperimentRunner(
        suite, config, artifact_cache=ArtifactCache(tmp_path)
    ).run_suite("PCAP", jobs=2)
    assert parallel == serial


# ------------------------------------- cell outcomes and Table 1 rows --


def _cell_path(runner, cache, application, predictor, **shape):
    return cache.path_for(cell_key(
        runner.fingerprint(application), predictor, runner.config, **shape
    ))


def test_cell_keys_separate_mode_multistate_config_and_fingerprint():
    fingerprint = "ab" * 20
    config = SimulationConfig()
    key = cell_key(fingerprint, "PCAP", config)
    assert key == cell_key(fingerprint, "PCAP", SimulationConfig())
    assert key == cell_key(fingerprint, "PCAP", config, mode="global",
                           multistate=False)
    others = {
        cell_key(fingerprint, "PCAP", config, mode="local"),
        cell_key(fingerprint, "PCAP", config, multistate=True),
        cell_key(fingerprint, "PCAP",
                 SimulationConfig(wait_window=2.0)),
        cell_key(fingerprint, "PCAP", SimulationConfig(
            cache=CacheConfig(capacity_bytes=512 * 1024))),
        cell_key("cd" * 20, "PCAP", config),
        cell_key(fingerprint, "TP", config),
    }
    assert key not in others and len(others) == 6
    # A Table 1 row is keyed by the same content and configuration.
    assert table1_key(fingerprint, config) == table1_key(
        fingerprint, SimulationConfig())
    assert table1_key(fingerprint, config) != table1_key("cd" * 20, config)
    assert table1_key(fingerprint, config) != table1_key(
        fingerprint, SimulationConfig(wait_window=2.0))


def test_truncated_cell_and_table1_entries_are_recomputed(tmp_path):
    suite = _tiny_suite()

    def run(cache):
        runner = ExperimentRunner(suite, artifact_cache=cache)
        return (runner, build_table1(runner),
                runner.run_matrix(FIG6_PREDICTORS, mode="local"),
                runner.run_matrix(["PCAP"], multistate=True))

    runner, table1, local, multistate = run(ArtifactCache(tmp_path))
    cache = ArtifactCache(tmp_path)
    torn = [
        _cell_path(runner, cache, "alpha", FIG6_PREDICTORS[0], mode="local"),
        _cell_path(runner, cache, "beta", "PCAP", multistate=True),
        cache.path_for(table1_key(runner.fingerprint("beta"),
                                  runner.config)),
    ]
    for path in torn:
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
    _, warm_table1, warm_local, warm_multistate = run(cache)
    assert (warm_table1, warm_local, warm_multistate) == (
        table1, local, multistate)
    assert cache.stats.quarantined == len(torn)
    for path in torn:
        assert path.with_name(path.name + ".corrupt").exists()
    # The recomputed entries were published again.
    healed = ArtifactCache(tmp_path)
    run(healed)
    assert healed.stats.misses == 0 and healed.stats.stores == 0


def test_entries_for_another_application_are_recomputed(tmp_path):
    suite = _tiny_suite()
    cache = ArtifactCache(tmp_path)
    runner = ExperimentRunner(suite, artifact_cache=cache)
    expected = runner.run_matrix(["PCAP"])
    rows = build_table1(runner)
    alpha = runner.fingerprint("alpha")
    # Beta's outcome and row under alpha's keys, and a key holding an
    # object of the wrong type: none of them may be served.
    cache.put(cell_key(alpha, "PCAP", runner.config),
              expected["beta"]["PCAP"])
    cache.put(table1_key(alpha, runner.config), rows[1])
    cache.put(table1_key(runner.fingerprint("beta"), runner.config),
              "not a row")
    fresh = ExperimentRunner(suite, artifact_cache=ArtifactCache(tmp_path))
    assert fresh.run_matrix(["PCAP"]) == expected
    assert build_table1(fresh) == rows


def test_traced_runner_neither_reads_nor_writes_cell_entries(tmp_path):
    suite = _tiny_suite()
    cache = ArtifactCache(tmp_path)
    untraced = ExperimentRunner(suite, artifact_cache=cache)
    planted = untraced.run_matrix(["PCAP"])["alpha"]["PCAP"]
    # A wrong result under a real key: a traced run must not serve it.
    cache.put(
        cell_key(untraced.fingerprint("alpha"), "PCAP", untraced.config),
        dataclasses.replace(planted, executions=999),
    )
    traced = ExperimentRunner(suite, tracing=True, artifact_cache=cache)
    result = traced.run_matrix(["PCAP", "TP"], mode="local")
    row = result["alpha"]["PCAP"]
    assert row.executions == 2 and row.trace_events
    for name in ("PCAP", "TP"):
        assert not _cell_path(traced, cache, "alpha", name,
                              mode="local").exists()
    global_row = traced.run_matrix(["PCAP"])["alpha"]["PCAP"]
    assert global_row.executions == 2 and global_row.trace_events


def test_warm_matrix_starts_no_worker(tmp_path, monkeypatch):
    """Every cell of a warm matrix — fused, single-lane, multistate and
    local — is served before the executor could fork, at any jobs."""
    import repro.sim.resilience as resilience

    suite = _tiny_suite()
    shapes = (
        (["PCAP", "TP"], {}),
        (["PCAP"], {}),
        (["PCAP"], {"multistate": True}),
        (list(FIG6_PREDICTORS), {"mode": "local"}),
    )
    cold = ExperimentRunner(suite, artifact_cache=ArtifactCache(tmp_path))
    expected = [
        cold.run_matrix(names, jobs=2, **shape) for names, shape in shapes
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("a warm matrix ran a cell")

    monkeypatch.setattr(resilience._Executor, "run_pool", refuse)
    monkeypatch.setattr(resilience._Executor, "run_in_process", refuse)
    events = []
    cache = ArtifactCache(tmp_path)
    warm = ExperimentRunner(suite, artifact_cache=cache,
                            progress=events.append)
    cells = 0
    for (names, shape), matrix in zip(shapes, expected):
        report = warm.run_matrix_resilient(names, jobs=2, **shape)
        assert report.matrix == matrix
        assert report.ledger.cached == len(report.ledger.outcomes)
        assert "served from the artifact cache" in report.ledger.render()
        cells += len(report.ledger.outcomes)
    assert len(events) == cells
    assert {event.outcome for event in events} == {"cached"}
    # One get per cell: no application was filtered for the pool.
    assert cache.stats.hits == cells and cache.stats.misses == 0


def test_served_cells_are_journalled_and_the_journal_comes_first(tmp_path):
    """A cell served from the cache is journalled like a run one, and a
    resumed run restores it from the journal without asking the cache."""
    suite = _tiny_suite()
    ExperimentRunner(
        suite, artifact_cache=ArtifactCache(tmp_path / "cache")
    ).run_matrix(["PCAP"])
    journal = tmp_path / "journal.jsonl"
    for resumed, cached in ((0, 2), (2, 0)):
        cache = ArtifactCache(tmp_path / "cache")
        report = ExperimentRunner(
            suite, artifact_cache=cache
        ).run_matrix_resilient(["PCAP"], checkpoint=journal)
        assert report.complete
        assert (report.ledger.resumed, report.ledger.cached) == (
            resumed, cached)
        assert cache.stats.hits == cached


# ------------------------------------------------------- concurrency --


def _store_entry(args: tuple[str, str, int]) -> bool:
    root, key, _worker = args
    cache = ArtifactCache(root)
    # Every writer publishes the same logical value (as racing workers
    # on a cold cache do); rename-into-place keeps each publish atomic.
    cache.put(key, {"value": list(range(500))})
    return cache.get(key)[0]


def test_concurrent_writers_leave_readable_entry(tmp_path):
    key = trace_key("alpha", 1.0)
    with multiprocessing.get_context("fork").Pool(4) as pool:
        outcomes = pool.map(
            _store_entry, [(str(tmp_path), key, i) for i in range(8)]
        )
    assert all(outcomes)
    cache = ArtifactCache(tmp_path)
    hit, value = cache.get(key)
    assert hit and value == {"value": list(range(500))}
    assert not list(tmp_path.rglob("*.tmp"))


# --------------------------------------------------------- resolution --


def test_resolve_cache_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
    assert resolve_cache() is None
    assert resolve_cache(tmp_path / "explicit") is not None

    monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "from-env"))
    from_env = resolve_cache()
    assert from_env is not None
    assert from_env.root == tmp_path / "from-env"
    # An explicit directory wins over the environment.
    explicit = resolve_cache(tmp_path / "explicit")
    assert explicit is not None and explicit.root == tmp_path / "explicit"

    monkeypatch.setenv(CACHE_DIR_ENV_VAR, "")
    assert resolve_cache() is None
