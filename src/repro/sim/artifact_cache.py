"""Persistent, content-addressed artifact cache for deterministic stages.

Every stage of an experiment is a deterministic pure function of its
inputs, so this module keeps their products on disk and repeated runs —
locally, in CI, and across the fork pool's worker processes — skip the
stages whose products they find.  The cache holds:

* each generated application trace (:func:`trace_key`), as a trace
  store (:func:`repro.workloads.build_application`);
* each execution's page-cache filter result (:func:`filter_key`), a
  pickled :class:`~repro.cache.filter.FilterResult`;
* each (application, predictor) result of a matrix, sweep or fleet,
  fused lanes and classic cells alike, a pickled
  :class:`~repro.sim.experiment.ApplicationResult` under its journal
  key (:func:`repro.sim.resilience.cell_key`), read and written by
  :func:`repro.sim.resilience.run_cells` alone;
* each application's Table 1 row (:func:`table1_key`), a pickled
  :class:`~repro.analysis.tables.Table1Row`.

A warm run therefore generates, filters and replays nothing (a traced
run reads no cell outcome, because a cached one carries no events).

* **Content addressing.**  Entries are keyed by a BLAKE2b digest over
  every input that determines the output: the application name and scale
  plus a schema version for generated traces; a fingerprint of the trace
  content plus the configuration (and, for cell outcomes, the predictor
  labels) plus a schema version for the rest.  Changing any input (or
  bumping :data:`SCHEMA_VERSION` when the layout of a pickled type —
  ``FilterResult``, ``ApplicationResult`` or ``Table1Row`` — or the
  meaning of a key component changes) changes the key, so stale
  entries are never *read* — they are simply orphaned.
* **One trace format.**  A generated trace is kept as a trace store
  (:mod:`repro.traces.store`), and a hit returns the lazily read
  :class:`~repro.traces.store.StoreBackedTrace`, which carries its
  manifest fingerprint.  That fingerprint equals
  :func:`trace_fingerprint` of the in-memory trace, so ``--store`` runs
  and generated runs of the same content share every entry keyed by
  it.  Every other artifact is a pickle.
* **Atomic writes, lock-free reads.**  A store writes to a private
  temporary file (or, for a trace, directory) in the cache directory and
  renames it into place, which is atomic on POSIX — a reader sees either
  the complete entry or nothing.  Concurrent writers of the same key
  (parallel workers racing on a cold cache) each publish an identical
  artifact; a pickle's last rename wins, a trace's first one does, and
  no locking is needed.
* **Corruption recovery.**  A truncated or unreadable entry (killed
  writer that bypassed the temp-file protocol, disk corruption, a torn
  write) is treated as a miss: the entry is *quarantined* — renamed
  aside with a ``.corrupt`` suffix so the evidence survives for
  inspection (removed as a fallback) — and the caller recomputes and
  rewrites it.  The :mod:`repro.faults` sites ``cache.corrupt-read``
  and ``cache.torn-write`` exercise this path deliberately.

The cache is opt-in: pass ``--cache-dir`` on the CLI or set the
``REPRO_CACHE_DIR`` environment variable.  Cached artifacts hold exactly
what the uncached path builds, so simulation results are bit-identical
with the cache on or off.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro import faults
from repro.cache.page_cache import CacheConfig
from repro.errors import TraceStoreError
from repro.traces.store import (
    MANIFEST_NAME,
    StoreBackedTrace,
    StoreWriter,
    TraceFingerprint,
    TraceStore,
    pack_trace,
)
from repro.traces.trace import ApplicationTrace

#: Bump whenever the layout of a pickled artifact type (``FilterResult``,
#: ``ApplicationResult``, ``Table1Row``) or the meaning of a key
#: component changes; old entries are orphaned rather than misread.  It
#: also feeds checkpoint cell keys.
SCHEMA_VERSION = 1

#: Environment variable naming the default on-disk cache directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Pickle protocol pinned for stable artifact bytes across interpreters.
_PICKLE_PROTOCOL = 4


@dataclass(slots=True)
class ArtifactCacheStats:
    """Counters of one :class:`ArtifactCache` instance (not persisted)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries found on disk but unreadable (treated as misses).
    corrupt: int = 0
    #: Corrupt entries renamed aside (``.corrupt``) for inspection.
    quarantined: int = 0


class ArtifactCache:
    """Content-addressed artifact store with atomic writes.

    The two-level directory layout (``ab/abcdef….pkl`` for pickles,
    ``ab/abcdef….store`` for traces) keeps directory sizes bounded; keys
    are hex digests produced by the ``*_key`` functions in this module.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = ArtifactCacheStats()

    def path_for(self, key: str) -> Path:
        """On-disk location of one entry (two-level fan-out by key)."""
        return self.root / key[:2] / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (``<entry>.corrupt``).

        Renaming instead of unlinking keeps the evidence for post-mortem
        inspection while still clearing the key for the recompute; a
        store directory replaces any older quarantined copy of itself.
        If the rename fails the entry is removed best-effort.
        """
        self.stats.corrupt += 1
        aside = path.with_name(path.name + ".corrupt")
        if aside.is_dir():
            shutil.rmtree(aside, ignore_errors=True)
        try:
            os.replace(path, aside)
            self.stats.quarantined += 1
        except OSError:
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def get(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss.

        Any failure to read or unpickle counts as a miss — never an
        exception to the caller: corrupt bytes can make the unpickler
        raise almost anything (a ``TypeError`` from a bogus reduce, an
        ``OverflowError`` or ``MemoryError`` from a huge length).  The
        offending entry is quarantined so the recompute can replace it.
        """
        path = self.path_for(key)
        faults.corrupt_cache_read(path)
        try:
            with open(path, "rb") as stream:
                value = pickle.load(stream)
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except Exception:
            self.stats.misses += 1
            self._quarantine(path)
            return False, None
        self.stats.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Publish ``value`` under ``key`` atomically (rename into place)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as stream:
                pickle.dump(value, stream, protocol=_PICKLE_PROTOCOL)
            faults.tear_cache_write(tmp_name)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def get_checked(self, key: str, kind: type, application: str) -> Any:
        """The ``kind`` instance cached for ``application`` under ``key``,
        or ``None``.

        An entry of another type, or one naming another application, is
        a miss like an unreadable one: the caller recomputes it and its
        ``put`` replaces the entry.
        """
        hit, value = self.get(key)
        if (
            hit
            and isinstance(value, kind)
            and value.application == application
        ):
            return value
        return None

    def trace_path_for(self, key: str) -> Path:
        """On-disk location of one generated trace's store directory."""
        return self.root / key[:2] / f"{key}.store"

    def get_trace(self, key: str) -> Optional[StoreBackedTrace]:
        """The cached trace under ``key``, or ``None`` on a miss.

        The store is opened and checked (:meth:`TraceStore.check`): every
        column file is size-checked against the manifest and every row's
        codes are checked, without NumPy.  A store that fails is
        quarantined and reported as a miss, like any corrupt entry.  A
        hit maps no column and reads no event: they load on demand.
        """
        path = self.trace_path_for(key)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            store = TraceStore(path)
            store.check()
            (application,) = store.applications
            trace = store.trace(application)
        except (TraceStoreError, AttributeError, KeyError, TypeError,
                ValueError):
            self.stats.misses += 1
            self._quarantine(path)
            return None
        self.stats.hits += 1
        return trace

    def put_trace(self, key: str, trace: ApplicationTrace) -> None:
        """Pack ``trace`` into a trace store published under ``key``.

        The store is packed into a private temporary directory and
        renamed into place.  A publisher that loses the rename to a
        concurrent one discards its copy: both packed the same trace.
        """
        path = self.trace_path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        ))
        try:
            with StoreWriter(tmp) as writer:
                pack_trace(trace, writer)
            faults.tear_cache_write(tmp / MANIFEST_NAME)
            try:
                os.rename(tmp, path)
            except OSError:
                if not path.is_dir():
                    raise
                return
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.stats.stores += 1


def _digest(*parts: object) -> str:
    """Hex BLAKE2b digest over the reprs of ``parts``.

    All key components are ints, floats, strings, or tuples thereof,
    whose reprs are deterministic across processes and platforms.
    """
    blob = "\x1f".join(repr(part) for part in parts).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=20).hexdigest()


def trace_key(application: str, scale: float) -> str:
    """Cache key of one generated application trace."""
    return _digest("trace", SCHEMA_VERSION, application, scale)


def trace_fingerprint(trace: ApplicationTrace) -> str:
    """Digest of a trace's full row content, read from its columns.

    Filtered artifacts are keyed on this fingerprint (not on the trace's
    provenance), so regenerating a workload with different content —
    a generator change, a different scale, an imported trace — can never
    serve stale filtered results.  It equals the manifest fingerprint
    of the same trace packed into a store (:class:`TraceFingerprint`).
    """
    fingerprint = TraceFingerprint(trace.application)
    for execution in trace:
        fingerprint.add_execution(execution)
    return fingerprint.hexdigest()


def filter_key(
    fingerprint: str, execution_index: int, cache_config: CacheConfig
) -> str:
    """Cache key of one execution's page-cache filtering result."""
    return _digest(
        "filtered",
        SCHEMA_VERSION,
        fingerprint,
        execution_index,
        cache_config.capacity_bytes,
        cache_config.block_size,
        cache_config.flush_interval,
    )


def table1_key(fingerprint: str, config: "SimulationConfig") -> str:
    """Cache key of one application's Table 1 row.

    The row counts the application's filtered accesses and the idle
    periods longer than the breakeven time, so it is a function of the
    trace content and the whole simulation configuration.
    """
    return _digest("table1", SCHEMA_VERSION, fingerprint, repr(config))


def variant_set_fingerprint(
    labels: tuple[str, ...] | list[str], config: "SimulationConfig"
) -> str:
    """Digest identifying a variant (lane) set under one configuration.

    It changes whenever the lane list (order included — lanes are
    positional) or the simulation configuration does.  Labels are the
    same predictor-identifying strings the per-cell path keys on
    (registry names, ``"TP@0.5"``-style sweep labels).  It pins a
    shared-table fleet's journal provenance and, through
    :func:`fleet_fingerprint`, its record keys.
    """
    return _digest(
        "variant-set", SCHEMA_VERSION, tuple(labels), repr(config)
    )


def fleet_fingerprint(
    device_fingerprints: tuple[str, ...] | list[str],
    labels: tuple[str, ...] | list[str],
    config: "SimulationConfig",
) -> str:
    """Digest identifying one fleet run.

    Built from the *ordered* per-device trace fingerprints crossed with
    the variant-set fingerprint: device order matters because the
    shared-table mode replays applications in first-seen device order
    (a reordered fleet evolves its shared tables differently), and the
    variant set pins down the predictor lanes.  A shared-table fleet
    keys its records on it.
    """
    return _digest(
        "fleet",
        SCHEMA_VERSION,
        tuple(device_fingerprints),
        variant_set_fingerprint(labels, config),
    )


def resolve_cache(
    cache_dir: Optional[str | os.PathLike[str]] = None,
) -> Optional[ArtifactCache]:
    """The artifact cache to use, or ``None`` when caching is off.

    An explicit ``cache_dir`` wins; otherwise the ``REPRO_CACHE_DIR``
    environment variable is consulted.  An empty value disables caching.
    """
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV_VAR) or None
    if cache_dir is None:
        return None
    return ArtifactCache(cache_dir)
