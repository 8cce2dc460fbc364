"""Arithmetic shared by the benchmark: percentiles, spreads, fidelity, SLO.

Everything here is pure and takes plain Python numbers, so the unit tests
in ``perfbench/tests`` pin it without running a workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default rule) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def tail_percentile(count: int, beyond: int = TAIL_SAMPLES_BEYOND) -> Optional[float]:
    """The highest whole or half percentile leaving ``beyond`` samples above it.

    Candidates are 99.9, 99.5, 99, 98.5, ... 50; a percentile ``p`` qualifies
    when ``count * (1 - p/100) >= beyond``.  Returns ``None`` when even the
    median leaves fewer than ``beyond`` samples (fewer than ``2 * beyond``).
    """
    for pct in [99.9] + [100.0 - step / 2.0 for step in range(1, 101)]:
        if count * (1.0 - pct / 100.0) >= beyond - 1e-9:
            return pct
    return None


def tail_summary(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the tail rule over ``values``.

    With fewer than ``2 * TAIL_SAMPLES_BEYOND`` samples no percentile leaves
    ten beyond it, so the median is reported with the count actually beyond.
    """
    pct = tail_percentile(len(values))
    if pct is None:
        pct = 50.0
    beyond = sum(1 for value in values if value > percentile(values, pct))
    return percentile(values, pct), pct, beyond


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when the median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def hellinger_fidelity(counts: Mapping[str, int], ideal: Mapping[str, float]) -> float:
    """``(sum_k sqrt(p_k q_k))**2`` between sampled counts and ideal probabilities."""
    shots = sum(counts.values())
    if shots <= 0:
        raise ValueError("counts are empty")
    overlap = sum(math.sqrt(ideal.get(key, 0.0) * count / shots) for key, count in counts.items())
    return min(1.0, overlap * overlap)


def slo_met_fraction(latencies_ms: Iterable[Optional[float]], limit_ms: float, attempted: int) -> float:
    """Share of ``attempted`` jobs that finished DONE within ``limit_ms``.

    ``latencies_ms`` holds one entry per DONE job; failed or refused jobs
    have no entry (or ``None``) and so count as misses through
    ``attempted``.
    """
    if attempted <= 0:
        raise ValueError("attempted must be positive")
    met = sum(1 for value in latencies_ms if value is not None and value <= limit_ms)
    return met / attempted


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping ``[start, end]`` intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(interval for interval in intervals if interval[1] > interval[0]):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def clipped(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> List[Tuple[float, float]]:
    """``intervals`` clipped to ``[start, end]`` (empty pieces dropped)."""
    pieces = []
    for low, high in intervals:
        low, high = max(low, start), min(high, end)
        if high > low:
            pieces.append((low, high))
    return pieces


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of a list of run values (for the compare report)."""
    q1, median, q3 = quartiles(values)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}
