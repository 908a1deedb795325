"""Pure metric arithmetic shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # samples that must lie above a reported tail percentile


def tail_percentile(values) -> tuple[float, float, int, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (percentile, value, sample count, samples beyond).  With n
    samples the value is the (n - TAIL_BEYOND)-th smallest, so exactly
    TAIL_BEYOND samples are ranked above it.  With too few samples for
    that, the median is reported as the tail (percentile 50).
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 50.0, statistics.median(xs), n, n // 2
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, xs[rank - 1], n, TAIL_BEYOND


def geometric_mean(values) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def r99(p: float) -> float:
    """Reads needed to see a ground state with 99% probability (at least 1)."""
    if p <= 0:
        return math.inf
    if p >= 0.99:
        return 1.0
    return max(1.0, math.log(0.01) / math.log(1.0 - p))


def tts99(instances) -> float:
    """Geometric mean over (median op seconds, reads per op, p) of
    (seconds / reads) · R99(p).  Any instance with p = 0 makes it unbounded
    (math.inf); no instance is dropped."""
    times = [op_s / reads * r99(p) for op_s, reads, p in instances]
    if any(math.isinf(t) for t in times):
        return math.inf
    return geometric_mean(times)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
