"""Latency summary helpers: mean, percentiles, variance, histograms.

The paper reports average message latency; its discussion of repeated
kills ("repeated kills can give some messages much larger latencies,
increasing the variance of message latency") makes the distribution tail
interesting too, so the summary keeps percentiles and variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class LatencySummary:
    """Moments and quantiles of a latency sample."""

    count: int
    mean: float
    std: float
    minimum: int
    p50: float
    p95: float
    p99: float
    maximum: int


def percentile(sorted_values: Sequence[int], q: float) -> float:
    """Linear-interpolation percentile of a pre-sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return float(sorted_values[low])
    frac = position - low
    return sorted_values[low] * (1 - frac) + sorted_values[high] * frac


def summarize(values: Sequence[int]) -> LatencySummary:
    """Summary of a (possibly unsorted) latency sample."""
    if not values:
        return LatencySummary(0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0)
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    var = sum((v - mean) ** 2 for v in ordered) / n
    return LatencySummary(
        count=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=ordered[0],
        p50=percentile(ordered, 0.50),
        p95=percentile(ordered, 0.95),
        p99=percentile(ordered, 0.99),
        maximum=ordered[-1],
    )


def histogram(
    values: Sequence[int], bin_width: int = 16
) -> List[Tuple[int, int]]:
    """Fixed-width histogram as (bin_start, count) pairs, sorted."""
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    bins: Dict[int, int] = {}
    for v in values:
        start = (v // bin_width) * bin_width
        bins[start] = bins.get(start, 0) + 1
    return sorted(bins.items())
