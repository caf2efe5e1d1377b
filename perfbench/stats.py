"""Order statistics for the benchmark: percentiles, medians, spreads.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it: with fewer, one slow sample moves it, and run-to-run noise is
mistaken for a change. Callers that cannot meet the rule must not report
the percentile; :func:`percentile` raises rather than returning a value.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def min_samples(pct: float) -> int:
    """Smallest sample count whose ``pct`` percentile has ``MIN_BEYOND``
    samples beyond it (a median needs ``2 * MIN_BEYOND``)."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {pct}")
    tail = min(pct, 100 - pct) / 100
    return math.ceil(MIN_BEYOND / tail - 1e-9)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct`` percentile of ``values``.

    Raises:
        TooFewSamples: fewer than :data:`MIN_BEYOND` samples lie beyond it.
    """
    need = min_samples(pct)
    if len(values) < need:
        raise TooFewSamples(
            f"p{pct:g} needs at least {need} samples "
            f"({MIN_BEYOND} beyond it), got {len(values)}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    """Plain median, for per-run repeats (set-up times, per-pass walls)."""
    if not values:
        raise TooFewSamples("median of an empty sample")
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (the acceptance spread).

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method),
    which is how the run-to-run spread of a metric is judged.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else math.inf
