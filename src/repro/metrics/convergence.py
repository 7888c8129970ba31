"""Convergence detection over per-iteration series.

The paper's headline claims are about convergence: "MLTCP converges to an
interleaved state within 20 iterations … the average iteration times of the
four jobs converge to within 5% of the optimal centralized schedule, and the
interleaving remains stable in subsequent iterations" (§2).
:func:`detect_convergence` turns an iteration-time series into those three
numbers: the convergence iteration, the settled mean to compare with a
target, and whether the series stays settled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["ConvergenceReport", "detect_convergence"]


@dataclass(frozen=True)
class ConvergenceReport:
    """Convergence analysis of one iteration-time series against a target."""

    converged_at: Optional[int]
    target: float
    tolerance: float
    final_mean: float
    stable: bool

    @property
    def converged(self) -> bool:
        """Whether a convergence point was found."""
        return self.converged_at is not None


def detect_convergence(
    series: Sequence[float],
    target: float,
    tolerance: float = 0.05,
    window: int = 3,
) -> ConvergenceReport:
    """First iteration from which the series stays within ``tolerance`` of
    ``target`` for at least ``window`` consecutive points (and report whether
    it remains there to the end).
    """
    if target <= 0:
        raise ValueError(f"target must be positive, got {target!r}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window!r}")
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise ValueError("series is empty")

    within = np.abs(arr - target) <= tolerance * target
    converged_at: Optional[int] = None
    run = 0
    for i, ok in enumerate(within):
        run = run + 1 if ok else 0
        if run >= window:
            converged_at = i - window + 1
            break

    stable = False
    if converged_at is not None:
        stable = bool(within[converged_at:].mean() >= 0.9)
    tail = arr[converged_at:] if converged_at is not None else arr
    return ConvergenceReport(
        converged_at=converged_at,
        target=target,
        tolerance=tolerance,
        final_mean=float(tail.mean()),
        stable=stable,
    )

