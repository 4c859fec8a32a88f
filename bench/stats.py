"""Summary statistics for latency samples."""

from __future__ import annotations

from statistics import median, quantiles
from typing import Optional, Sequence

TAIL_BEYOND = 10  # samples that must lie above the tail value


def tail(values: Sequence[float]) -> Optional[tuple[float, float]]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples above it.

    With n sorted samples that is sample n - TAIL_BEYOND (1-based), the
    100 (n - TAIL_BEYOND) / n percentile. None when n <= TAIL_BEYOND.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)
