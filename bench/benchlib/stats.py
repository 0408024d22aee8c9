"""Percentiles, quartile spreads and the `--compare` verdict rule."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported as a tail only with this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    *q* of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie strictly beyond the q-th percentile."""
    return count - max(1, math.ceil(q * count))


def tail_supported(count: int, q: float = 0.95) -> bool:
    """The choosing-metrics rule: a tail percentile needs at least ten
    samples beyond it (200 ops for p95)."""
    return samples_beyond(count, q) >= SAMPLES_BEYOND


def spread(values) -> dict:
    """Median, quartiles and the quartile distance as a share of the median
    (the driver's steadiness measure)."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def verdict(a_values, b_values, *, better: str, bound: float) -> str:
    """Compare two sets of runs of one metric on one workload.

    ``worse`` when B's median is worse than A's by more than *bound* (as a
    share of A's median); ``unresolved`` when either side's own quartile
    spread is wider than the bound — unless every B run reads better than
    every A run; ``better`` when B improved by more than A's own spread;
    otherwise ``within``.
    """
    a, b = spread(a_values), spread(b_values)
    sign = 1.0 if better == "lower" else -1.0
    base = a["median"]
    change = sign * (b["median"] - base) / base if base else 0.0
    if better == "lower":
        all_better = max(b_values) < min(a_values)
    else:
        all_better = min(b_values) > max(a_values)
    if max(a["spread"], b["spread"]) > bound and not all_better:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < 0 and -change > a["spread"]:
        return "better"
    return "within"
