"""Summary statistics shared by the benchmark runner and the report."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # a reported percentile keeps at least this many samples above it


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns ``(label, value)``, for example ``("p50", 1.23)`` from twenty
    samples, or ``(None, None)`` when there are too few samples for one.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None, None
    ordered = sorted(samples)
    k = n - TAIL_BEYOND - 1
    return f"p{math.floor(100 * (k + 1) / n)}", ordered[k]


def summarize(samples) -> dict:
    """Median, tail percentile and sample count of a list of numbers."""
    if not samples:
        return {"median": None, "tail": None, "tail_value": None, "n": 0}
    label, value = tail(samples)
    return {"median": statistics.median(samples), "tail": label, "tail_value": value,
            "n": len(samples)}


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None


def fmt(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.{digits}g}"
