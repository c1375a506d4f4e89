"""Latency summaries and span self-time arithmetic."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``count``."""
    return count - math.ceil(q * count)


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile; refuses one with too few samples beyond it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if q > 0.5 and samples_beyond(len(ordered), q) < min_beyond:
        raise ValueError(
            f"p{q * 100:g} needs {min_beyond} samples beyond it; "
            f"{len(ordered)} samples leave {samples_beyond(len(ordered), q)}"
        )
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def summary(values) -> dict:
    """Median, p95 (or ``None`` when refused) and the sample count."""
    values = list(values)
    out = {"n": len(values), "p50": statistics.median(values) if values else None,
           "p95": None}
    if values and samples_beyond(len(values), 0.95) >= MIN_BEYOND:
        out["p95"] = percentile(values, 0.95)
    return out


def covered(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total, reach = 0.0, start
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(children, start, end)
