"""Summary statistics shared by the workloads."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: candidate percentiles for a ``tail``, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], p: float) -> float:
    """The *p*-th percentile by linear interpolation between closest
    ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """The highest ladder percentile with at least *beyond* of *n*
    samples above it, or ``None`` when even the median has fewer."""
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= beyond:
            return p
    return None


def tail(values: Sequence[float]) -> Tuple[float, Optional[float], int]:
    """``(value, percentile, samples)`` for the ``tail`` rule; with too
    few samples for any ladder rung the maximum stands in (percentile
    ``None``)."""
    p = tail_percentile(len(values))
    if p is None:
        return max(values), None, len(values)
    return percentile(values, p), p, len(values)
