"""Order statistics for the benchmark's reports.

Percentiles use the nearest-rank definition, so a reported percentile is
always one of the measured samples.  A tail percentile is refused unless at
least MIN_TAIL samples lie strictly beyond it; a p95 therefore needs at
least 200 samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_TAIL = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; fails when fewer than MIN_TAIL samples lie beyond it."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"percentile fraction {fraction} outside (0, 1)")
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    if len(ordered) - rank < MIN_TAIL:
        raise ValueError(
            f"p{fraction * 100:g} of {len(ordered)} samples leaves "
            f"{len(ordered) - rank} beyond it; need {MIN_TAIL}"
        )
    return ordered[rank - 1]


def min_samples(fraction: float) -> int:
    """Smallest sample count for which percentile(values, fraction) is allowed."""
    count = MIN_TAIL + 1
    while count - math.ceil(fraction * count) < MIN_TAIL:
        count += 1
    return count


def blocked_percentile(values: Sequence[float], fraction: float) -> tuple[float, int]:
    """(median of the percentile over consecutive blocks, number of blocks).

    Samples are taken in time order and split into blocks of min_samples(fraction),
    the last block keeping the remainder, so every block's percentile has
    MIN_TAIL samples beyond it.  A burst of machine noise then moves one
    block's tail rather than the reported figure.
    """
    size = min_samples(fraction)
    count = len(values) // size
    if count == 0:
        raise ValueError(f"{len(values)} samples are fewer than one block of {size}")
    bounds = [k * size for k in range(count)] + [len(values)]
    tails = [percentile(values[lo:hi], fraction) for lo, hi in zip(bounds, bounds[1:])]
    return median(tails), count
