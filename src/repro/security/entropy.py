"""Empirical randomization-entropy measurement.

Section 4.3 claims in-monitor randomization provides entropy equivalent to
Linux's own: the offset algorithm is the same and the randomness source is
the host pool.  These helpers measure the offsets actually produced over
many boots so tests can check uniformity and coverage empirically.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Collection, Iterable

from repro.core.layout_result import LayoutResult


def offset_distribution(layouts: Iterable[LayoutResult]) -> Counter[int]:
    """Histogram of chosen virtual offsets."""
    return Counter(layout.voffset for layout in layouts)


def empirical_entropy_bits(samples: Iterable[int]) -> float:
    """Shannon entropy (bits) of an observed sample distribution.

    A plug-in estimate: with n samples over k equiprobable slots it
    approaches ``log2(k)`` from below as n grows.
    """
    return entropy_bits_of_counts(Counter(samples).values())


def entropy_bits_of_counts(counts: Collection[int]) -> float:
    """Shannon entropy (bits) of a distribution given as sample counts.

    The core of :func:`empirical_entropy_bits`, for callers that already
    keep the counts (the live auditor).
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    entropy = 0.0
    for count in counts:
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def coverage_fraction(samples: Iterable[int], slot_count: int) -> float:
    """Fraction of the theoretical offset slots actually observed."""
    observed = len(set(samples))
    if slot_count <= 0:
        raise ValueError("slot_count must be positive")
    return observed / slot_count
