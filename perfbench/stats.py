"""Summary arithmetic shared by the benchmark, its spread tool and its tests."""

from __future__ import annotations

import statistics

import numpy as np

# Percentiles a timing may be reported at, lowest first.
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9)


def tail_percentile(values, min_beyond: int = 10):
    """The highest percentile on TAIL_LADDER that still has at least
    min_beyond samples above it, as (q, value); None when even the lowest
    rung has too few samples behind it."""
    n = len(values)
    best = None
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= min_beyond - 1e-9:  # 99.9 is inexact
            best = (q, float(np.percentile(values, q)))
    return best


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return (q3 - q1) / q2


def ratio_with_base(value: float, base: float) -> dict:
    """A ratio that keeps its base next to it, so a share is never quoted
    without what it is a share of.  The ratio is None for a zero base."""
    return {"value": value, "base": base,
            "ratio": None if base == 0 else value / base}


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
