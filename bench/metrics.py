"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import sys


def tail_latency(samples: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with ``beyond`` samples above it.

    With n samples that is the (n - beyond)-th smallest, the percentile
    100 * (n - beyond) / n.  With too few samples for any such percentile
    the median is reported, with the number of samples above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= 2 * beyond:
        rank = math.ceil(n / 2)
        return ordered[rank - 1], 50.0, n - rank
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def margin_digits(residual: float, tolerance: float) -> float:
    """log10(tolerance / residual), with residuals below machine epsilon counted as epsilon."""
    return math.log10(tolerance / max(residual, sys.float_info.epsilon))
