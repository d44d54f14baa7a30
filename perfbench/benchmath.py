"""Metric math of the benchmark: percentiles, spreads, self time, failures.

Kept free of I/O and of any import from ``repro`` so the unit tests in
``test_benchmath.py`` exercise exactly what ``run.py`` reports.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is withheld unless at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10

#: The reference work's median wall time on the machine the bounds were
#: measured on (a 2-vCPU virtual machine): calibrated times are seconds
#: at the host speed where the reference work takes this long.
REFERENCE_S = 0.33


def percentile(values: Sequence[float], q: float) -> Optional[tuple[float, int]]:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) as ``(value, samples)``.

    Returns ``None`` when fewer than :data:`MIN_SAMPLES_BEYOND` samples
    rank above the chosen one: with too few samples beyond it, a
    percentile is a single slow outlier, not a property of the run.  For
    the 90th percentile that means at least 100 samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1], len(ordered)


def calibrated(wall: float, reference: float) -> float:
    """``wall`` rescaled to the host speed at which the reference work
    takes :data:`REFERENCE_S`.

    ``reference`` is the reference work's wall time measured next to
    ``wall``.  A host that slows both by the same factor leaves the
    result unchanged; a program that gets slower raises it.
    """
    if reference <= 0:
        raise ValueError(f"reference wall must be positive, got {reference}")
    return wall * REFERENCE_S / reference


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> dict:
    """Median, quartiles and the quartile distance as a share of the median.

    The quartiles are :func:`statistics.quantiles` with ``n=4`` (its
    default exclusive method), the rule the steadiness check uses.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else math.inf,
    }


def failure_share(attempted: int, failed: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Self time of every span: its duration minus its children's.

    ``spans`` holds ``(name, start, end, parent)`` rows, ``parent``
    being the index of the enclosing span or ``None``.  A span's parent
    is the open span on the same thread, so a parent's children run one
    after another inside it.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def self_time_by_name(spans: Sequence[Sequence]) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals
