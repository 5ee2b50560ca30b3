"""Order statistics for the benchmark's timings.

Percentiles use the nearest-rank definition, so every reported value is
a measured sample rather than an interpolation between two.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Samples a tail percentile must leave beyond it to be reported.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """The median of ``values``; raises ``ValueError`` when empty."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def median_low(values: Sequence[float]) -> float:
    """The lower median: always one of the samples, so counts stay whole."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median_low(values)


def percentile(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``values`` (0 < pct <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_rank(count: int) -> float | None:
    """The highest percentile with at least ``TAIL_SAMPLES`` samples beyond it.

    With ``count`` samples the sample at nearest rank ``count - 10`` is the
    last one that still has ten samples above it; its percentile is
    ``100 * (count - 10) / count``.  ``None`` when there are too few
    samples to report any tail.
    """
    if count <= TAIL_SAMPLES:
        return None
    return 100.0 * (count - TAIL_SAMPLES) / count


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` of the tail-rank sample, or ``None``."""
    pct = tail_rank(len(values))
    if pct is None:
        return None
    return pct, sorted(values)[len(values) - TAIL_SAMPLES - 1]

