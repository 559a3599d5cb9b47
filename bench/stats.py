"""Order statistics for per-instance timings."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

MIN_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(values: Sequence[float], q: float,
                  min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The q-quantile, or None when fewer than `min_beyond` samples exceed it."""
    if not values:
        return None
    value = quantile(values, q)
    beyond = sum(1 for v in values if v > value)
    return value if beyond >= min_beyond else None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def harrell_davis_median(values: Sequence[float]) -> float:
    """The Harrell-Davis estimate of the median.

    A mean of all order statistics weighted by the Beta((n+1)/2, (n+1)/2)
    mass over ((i-1)/n, i/n]: it rests on many samples near the middle, not
    on the one or two a single slow instance can move.  The Beta density is
    integrated by the midpoint rule on a grid that has i/n on it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    if n == 1:
        return ordered[0]
    a = (n + 1) / 2
    per = -(-4000 // n)
    steps = n * per
    # log density relative to its peak at 1/2, so large n cannot underflow
    density = [math.exp((a - 1) * (math.log(x) + math.log1p(-x)
                                   + math.log(4.0)))
               for x in ((j + 0.5) / steps for j in range(steps))]
    weights = [sum(density[i * per:(i + 1) * per]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def relative_iqr(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
