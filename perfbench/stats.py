"""Summary statistics and measurement guards shared by every workload."""

from __future__ import annotations

import math
import resource
import tracemalloc
from typing import Sequence, Tuple

#: Samples the reported tail percentile leaves beyond it, and the
#: highest percentile reported (beyond it the tail is a handful of
#: outliers, which no two runs share).
TAIL_BEYOND = 10
TAIL_CAP = 99.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the ``inclusive`` method of
    :func:`statistics.quantiles`)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` of *n*
    samples beyond it, capped at ``TAIL_CAP`` (the median when the
    sample is smaller than twice ``TAIL_BEYOND``). It moves smoothly
    with *n*, so runs with slightly different sample counts report
    nearly the same percentile."""
    return min(TAIL_CAP, max(50.0, 100.0 * (1.0 - TAIL_BEYOND / n)))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile used, value)`` of the tail of *values*."""
    pct = tail_percentile(len(values))
    return pct, percentile(values, pct)


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size from ``getrusage`` (Linux reports KiB).
    With *include_children*, the larger of this process and its
    largest reaped child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def assert_untraced() -> None:
    """Called around every timed operation: timing a run while
    ``tracemalloc`` traces allocations inflates it several-fold."""
    if tracemalloc.is_tracing():
        raise RuntimeError("tracemalloc is tracing during a timed "
                           "operation; timings would be inflated")
