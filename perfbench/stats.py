"""Percentiles and the rule for which of them a run may report."""

from __future__ import annotations

import math
from typing import Sequence

#: Candidate tail percentiles, highest first.
TAIL_FRACTIONS = (0.999, 0.99, 0.9)
#: A tail percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(max(rank - 1, 0), len(ordered) - 1)]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - math.ceil(fraction * count)


def tail_fraction(count: int) -> float | None:
    """The highest tail percentile with enough samples beyond it, or None."""
    for fraction in TAIL_FRACTIONS:
        if samples_beyond(count, fraction) >= MIN_SAMPLES_BEYOND:
            return fraction
    return None


def latency_summary(values: Sequence[float]) -> dict[str, float]:
    """Median plus the highest tail percentile the sample count supports.

    Keys are ``p50`` and, when reportable, ``p90``/``p99``/``p99.9``.
    """
    summary = {"p50": percentile(values, 0.5)}
    fraction = tail_fraction(len(values))
    if fraction is not None:
        summary[f"p{fraction * 100:g}"] = percentile(values, fraction)
    return summary
