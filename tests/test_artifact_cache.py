"""Persistent artifact cache: addressing, recovery, and bit-identity."""

from __future__ import annotations

import multiprocessing

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
    trace_key,
)
from repro.sim.experiment import ExperimentRunner
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
    # The broken entry is gone, and the recompute path heals the cache.
    assert not cache.path_for(key).exists()
    assert cache.get_or_compute(key, lambda: [1, 2, 3]) == [1, 2, 3]
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
    assert cache.get_or_compute(key, lambda: list(range(1000))) == list(
        range(1000)
    )
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
    # compute path rewrites a good copy.
    assert cache.get_or_compute(key, lambda: list(range(500))) == list(
        range(500)
    )
    assert cache.stats.corrupt == 1
    assert cache.get(key) == (True, list(range(500)))


def test_get_or_compute_computes_once(tmp_path):
    cache = ArtifactCache(tmp_path)
    calls = []
    for _ in range(3):
        value = cache.get_or_compute("ab" * 20, lambda: calls.append(1) or 42)
        assert value == 42
    assert len(calls) == 1


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
