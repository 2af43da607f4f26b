"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import statistics

import numpy as np

# Candidate tail percentiles, highest last. The tail reported is the
# highest one with at least MIN_BEYOND samples above it.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least MIN_BEYOND of n samples above it.

    With fewer than 2 * MIN_BEYOND samples no candidate qualifies and the
    tail is the maximum, reported as percentile 100.
    """
    best = 100.0
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


def tail(values: list, percentile: float = None) -> tuple:
    """(value, percentile, sample count) of the tail of ``values``.

    The percentile is ``tail_percentile(len(values))`` unless given.
    """
    p = tail_percentile(len(values)) if percentile is None else percentile
    return float(np.percentile(values, p, method="linear")), p, len(values)


def quartile_spread(values: list) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are checked against."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
