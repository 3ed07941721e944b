"""Order statistics used by the benchmark.

Percentiles are nearest-rank: the reported value is one of the samples, and
the number of samples strictly beyond it is known exactly. A tail percentile
is only trusted when at least ``MIN_BEYOND`` samples lie beyond it.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def nearest_rank(values, pct):
    """Nearest-rank percentile and the number of samples strictly beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError("percentile must lie in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank

