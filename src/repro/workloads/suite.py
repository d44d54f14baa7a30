"""The six-application suite of the paper's Table 1.

:func:`build_suite` generates the full trace history of every
application — deterministic, so every run of the benchmarks sees the
same traces.  ``scale`` shrinks both the number of executions and the
actions per execution (tests use small scales; benches use 1.0).
"""

from __future__ import annotations

import importlib
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.traces.trace import ApplicationTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import ApplicationSpec

#: Table 1 order; each name is also its generator's module in this
#: package, imported only to generate (a cached trace needs none).
APPLICATIONS = ("mozilla", "writer", "impress", "xemacs", "nedit", "mplayer")


def application_spec(name: str) -> ApplicationSpec:
    """The behavioural spec of one suite application."""
    if name not in APPLICATIONS:
        raise KeyError(
            f"unknown application {name!r}; suite has {APPLICATIONS}"
        )
    return importlib.import_module(f"repro.workloads.{name}").spec()


def _generate(name: str, scale: float) -> ApplicationTrace:
    from repro.workloads.base import build_application_trace

    return build_application_trace(application_spec(name), scale=scale)


def build_application(
    name: str, *, scale: float = 1.0, cache=None
) -> ApplicationTrace:
    """Generate one application's full trace history.

    With an :class:`~repro.sim.artifact_cache.ArtifactCache` the trace is
    kept as a trace store keyed by (application, scale, schema version),
    and the lazily read :class:`~repro.traces.store.StoreBackedTrace` is
    returned on a hit and on a miss alike: the second process to ask
    skips generation entirely.  A miss reads back the store it just
    published; a store torn at publish is quarantined by that read and
    packed once more from the generated trace, which is returned if the
    second store is torn too.  Generation is deterministic, so the
    cached trace holds the same events as a fresh build.
    """
    if cache is None:
        return _generate(name, scale)
    from repro.sim.artifact_cache import trace_key

    key = trace_key(name, scale)
    stored = cache.get_trace(key)
    if stored is not None:
        return stored
    trace = _generate(name, scale)
    for _attempt in range(2):
        cache.put_trace(key, trace)
        stored = cache.get_trace(key)
        if stored is not None:
            return stored
    return trace


@lru_cache(maxsize=4)
def _cached_suite(scale: float) -> dict[str, ApplicationTrace]:
    return {
        name: build_application(name, scale=scale) for name in APPLICATIONS
    }


def build_suite(
    *,
    scale: float = 1.0,
    applications: tuple[str, ...] = APPLICATIONS,
    cache=None,
) -> dict[str, ApplicationTrace]:
    """Generate (and memoize) the suite's traces at the given scale.

    ``cache`` persists each application's trace on disk as a trace store
    instead of the in-process memo (see :func:`build_application`),
    sharing the build across processes and runs; the suite then holds
    store-backed traces.
    """
    if cache is not None:
        return {
            name: build_application(name, scale=scale, cache=cache)
            for name in applications
        }
    full = _cached_suite(scale)
    return {name: full[name] for name in applications}
