"""The six-application suite of the paper's Table 1.

:func:`build_suite` generates the full trace history of every
application — deterministic, so every run of the benchmarks sees the
same traces.  ``scale`` shrinks both the number of executions and the
actions per execution (tests use small scales; benches use 1.0).
"""

from __future__ import annotations

from functools import lru_cache

from repro.traces.trace import ApplicationTrace
from repro.workloads import impress, mozilla, mplayer, nedit, writer, xemacs
from repro.workloads.base import ApplicationSpec, build_application_trace

#: Table 1 order.
APPLICATIONS = ("mozilla", "writer", "impress", "xemacs", "nedit", "mplayer")

_SPEC_BUILDERS = {
    "mozilla": mozilla.spec,
    "writer": writer.spec,
    "impress": impress.spec,
    "xemacs": xemacs.spec,
    "nedit": nedit.spec,
    "mplayer": mplayer.spec,
}


def application_spec(name: str) -> ApplicationSpec:
    """The behavioural spec of one suite application."""
    try:
        return _SPEC_BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown application {name!r}; suite has {APPLICATIONS}"
        ) from None


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
        return build_application_trace(application_spec(name), scale=scale)
    from repro.sim.artifact_cache import trace_key

    key = trace_key(name, scale)
    stored = cache.get_trace(key)
    if stored is not None:
        return stored
    trace = build_application_trace(application_spec(name), scale=scale)
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
