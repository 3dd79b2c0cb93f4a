"""Order statistics with the sample-count rule the benchmark reports by.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it, so a tail figure never rests on one or two outliers.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: samples that must lie strictly above a reported percentile
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    of the samples at or below it (``q`` in (0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank ``q`` percentile of ``n`` samples."""
    return n - max(1, math.ceil(q * n))


def reportable(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples leave ``min_beyond`` of them above the
    ``q`` percentile."""
    return n > 0 and beyond(n, q) >= min_beyond


def tail(values: Sequence[float], q: float,
         min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The ``q`` percentile, or None when too few samples lie beyond it."""
    if not reportable(len(values), q, min_beyond):
        return None
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
