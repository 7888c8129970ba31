"""Statistics over iteration-time series (CDFs, percentiles, speedups)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "empirical_cdf",
    "percentile",
    "tail_speedup",
    "jain_fairness",
]


def empirical_cdf(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_values, cumulative_probabilities)`` — the Figure 4(c) view."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot build a CDF from an empty sample")
    ordered = np.sort(arr)
    probabilities = np.arange(1, ordered.size + 1) / ordered.size
    return ordered, probabilities


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (q in [0, 100])."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    return float(np.percentile(arr, q))


def tail_speedup(
    baseline: Sequence[float], improved: Sequence[float], q: float = 99.0
) -> float:
    """Ratio of tail percentiles: how much faster the improved tail is.

    The paper reports "tail iteration time speedup of 1.59x achieved using
    MLTCP compared to standard TCP-Reno" (Figure 4(c)); this is
    ``percentile(baseline, q) / percentile(improved, q)``.
    """
    improved_tail = percentile(improved, q)
    if improved_tail <= 0:
        raise ValueError(f"improved tail percentile must be positive, got {improved_tail!r}")
    return percentile(baseline, q) / improved_tail


def jain_fairness(allocations: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly equal allocations; ``1/n`` means one user takes
    everything.  Used by the §5 fairness experiments to quantify how far
    MLTCP's *deliberate* unfairness (weights up to slope+intercept apart)
    actually moves the share distribution.
    """
    arr = np.asarray(allocations, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot compute fairness of an empty allocation")
    if np.any(arr < 0):
        raise ValueError("allocations must be non-negative")
    total_sq = float(arr.sum()) ** 2
    denom = arr.size * float((arr**2).sum())
    if denom == 0:
        raise ValueError("all allocations are zero")
    return total_sq / denom

