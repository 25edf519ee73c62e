"""Small order statistics shared by the harness and the spread check."""

from __future__ import annotations

import statistics

#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(values: list[float], q: float) -> float | None:
    """The ``q``-th percentile, or None when fewer than ten samples lie beyond it.

    p90 therefore needs at least 100 samples.
    """
    if len(values) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return percentile(values, q)


def relative_iqr(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
