"""Theoretical analysis of MLTCP (paper §4).

The paper models two identical jobs sharing a link: each iteration lasts
``T`` seconds in isolation, of which the first ``alpha * T`` is the
communication phase.  ``delta`` denotes the difference in start times of the
jobs' current iterations.  MLTCP's unequal bandwidth sharing moves ``delta``
by ``Shift(delta)`` every iteration (Eq. 3):

    Shift(d) = Slope * d * (alpha*T - d) / (alpha*T*Intercept + d*Slope)

and convergence is gradient descent on the loss (Eq. 4):

    Loss(d) = integral_0^d -Shift(x) dx

which is minimized when the communication phases no longer overlap (for
``alpha = 1/2``, at ``delta = T/2`` — paper Figure 5(c)).  With zero-mean
Gaussian noise of std ``sigma`` on iteration times, the steady-state error is
normal with std ``2 * sigma * (1 + Intercept/Slope)``.

This module provides those functions in closed/numeric form, signed versions
covering the full circle ``delta in [0, T)``, single- and multi-job
gradient-descent trajectories, and the error bound — all of which the
benchmarks compare against simulator measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .aggressiveness import PAPER_INTERCEPT, PAPER_SLOPE

__all__ = [
    "CONVERGENCE_TOLERANCE_FRACTION",
    "shift",
    "signed_shift",
    "loss",
    "loss_curve",
    "gradient_descent",
    "DescentTrajectory",
    "convergence_error_std",
    "escape_rate",
    "predicted_convergence_iterations",
    "iterations_to_converge",
    "MultiJobDescent",
]

#: Fraction of the period treated as "converged" around the non-overlap
#: region.  Absorbs the asymptotic approach: the shift map converges
#: geometrically, so exact non-overlap is only reached in the limit (and
#: for ``alpha = 0.5`` the non-overlap region is a single point).  The
#: bounded-model-checking layer mirrors this constant
#: (``repro.verify.model``, kept in sync by lint rule MDL001).
CONVERGENCE_TOLERANCE_FRACTION = 0.02


def shift(
    delta: float,
    alpha: float,
    period: float,
    slope: float = PAPER_SLOPE,
    intercept: float = PAPER_INTERCEPT,
) -> float:
    """Eq. 3: the per-iteration shift while communication phases overlap.

    Defined on ``0 <= delta <= alpha * period``; outside that range the
    phases no longer overlap and the shift is zero.
    """
    _validate_model(alpha, period, slope, intercept)
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta!r}")
    comm = alpha * period
    if delta >= comm:
        return 0.0
    numerator = slope * delta * (comm - delta)
    denominator = comm * intercept + delta * slope
    return numerator / denominator


def signed_shift(
    delta: float,
    alpha: float,
    period: float,
    slope: float = PAPER_SLOPE,
    intercept: float = PAPER_INTERCEPT,
) -> float:
    """Shift over the full circle ``delta in [0, period)``.

    The start-time difference of two periodic jobs lives on a circle of
    circumference ``period``.  For ``delta`` just below ``period`` the
    second job leads the first by ``period - delta < alpha * period`` and the
    same mechanism pushes ``delta`` *down*; by symmetry
    ``signed_shift(d) = -shift(period - d)`` there.
    """
    _validate_model(alpha, period, slope, intercept)
    wrapped = delta % period
    comm = alpha * period
    if wrapped < comm:
        return shift(wrapped, alpha, period, slope, intercept)
    if wrapped > period - comm:
        return -shift(period - wrapped, alpha, period, slope, intercept)
    return 0.0


def loss(
    delta: float,
    alpha: float,
    period: float,
    slope: float = PAPER_SLOPE,
    intercept: float = PAPER_INTERCEPT,
) -> float:
    """Eq. 4: ``Loss(delta) = -integral_0^delta Shift``, in closed form.

    With ``m = alpha*T``, ``k = Slope`` and ``c = m*Intercept``, Eq. 3 is

        Shift(x) = k*x*(m - x) / (c + k*x)
                 = -x + (k*m + c)/k - (c*(k*m + c)/k) / (k*x + c)

    so, on the overlap region ``0 <= delta <= m``,

        Loss(delta) = delta^2/2 - (m + c/k)*delta
                      + (c*(k*m + c)/k^2) * ln(1 + k*delta/c).

    The loss uses the signed shift, so it is defined over the whole circle:
    maximal at full overlap (``delta = 0``), flat through the disjoint
    plateau, and mirrored by the circle symmetry ``Loss(T - x) = Loss(x)``
    near ``T``.
    """
    _validate_model(alpha, period, slope, intercept)
    wrapped = delta % period
    m = alpha * period
    k = slope
    c = m * intercept

    def overlap_loss(x: float) -> float:
        return (
            x * x / 2.0
            - (m + c / k) * x
            + (c * (k * m + c) / (k * k)) * math.log1p(k * x / c)
        )

    if wrapped <= m:
        return overlap_loss(wrapped)
    if wrapped >= period - m:
        return overlap_loss(period - wrapped)
    return overlap_loss(m)


def escape_rate(
    slope: float = PAPER_SLOPE, intercept: float = PAPER_INTERCEPT
) -> float:
    """Per-iteration growth factor of a small start-time difference.

    Linearizing Eq. 3 at ``delta -> 0`` gives ``Shift ~ (Slope/Intercept) *
    delta``, so each iteration multiplies a small offset by
    ``1 + Slope/Intercept``.  With the paper's constants that is 8x per
    iteration — why MLTCP escapes the synchronized (fully overlapped)
    unstable equilibrium within a handful of iterations.
    """
    if not 0.0 < slope < math.inf:
        raise ValueError(f"slope must be positive and finite, got {slope!r}")
    if not 0.0 < intercept < math.inf:
        raise ValueError(f"intercept must be positive and finite, got {intercept!r}")
    return 1.0 + slope / intercept


def predicted_convergence_iterations(
    delta0: float,
    alpha: float,
    period: float,
    slope: float = PAPER_SLOPE,
    intercept: float = PAPER_INTERCEPT,
) -> float:
    """Analytic estimate of iterations to leave the overlap region.

    Uses the exponential escape approximation ``delta_i ~ delta_0 * r^i``
    with ``r = escape_rate()``; accurate near 0 and a slight *under*-estimate
    overall, because the shift tapers off as the offset approaches the edge
    of the overlap region (Eq. 3's numerator vanishes there).
    """
    _validate_model(alpha, period, slope, intercept)
    if not 0 < delta0 < alpha * period:
        raise ValueError(
            f"delta0 must lie inside the overlap region (0, {alpha * period}), "
            f"got {delta0!r}"
        )
    rate = escape_rate(slope, intercept)
    return math.log(alpha * period / delta0) / math.log(rate)


def loss_curve(
    alpha: float,
    period: float,
    slope: float = PAPER_SLOPE,
    intercept: float = PAPER_INTERCEPT,
    samples: int = 513,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled ``(delta, Loss(delta))`` over one period (for Figure 5(c)).

    Cumulative trapezoidal integration of the signed shift — O(samples)
    instead of O(samples) quadratures — normalized so ``Loss(0) = 0`` like
    Eq. 4.  The sum is scipy's ``cumulative_trapezoid(y, deltas,
    initial=0.0)`` written out in numpy with its operation order, so the
    curve is bit-identical to it (tests/test_analysis.py holds scipy as the
    oracle) without importing scipy.
    """
    _validate_model(alpha, period, slope, intercept)
    if samples < 3:
        raise ValueError(f"need at least 3 samples, got {samples}")
    deltas = np.linspace(0.0, period, samples)
    shifts = np.array(
        [signed_shift(d, alpha, period, slope, intercept) for d in deltas]
    )
    y = -shifts
    steps = np.diff(deltas) * (y[1:] + y[:-1]) / 2.0
    losses = np.concatenate(([0.0], np.cumsum(steps)))
    return deltas, losses


@dataclass(frozen=True)
class DescentTrajectory:
    """Result of a gradient-descent run of the two-job model."""

    deltas: np.ndarray
    alpha: float
    period: float
    slope: float
    intercept: float
    noise_sigma: float

    @property
    def final_delta(self) -> float:
        """Start-time difference after the last iteration."""
        return float(self.deltas[-1])

    @property
    def converged_iteration(self) -> Optional[int]:
        """First iteration with (near-)zero communication overlap, if any.

        A 2%-of-period tolerance absorbs the asymptotic approach; for
        ``alpha = 0.5`` the non-overlap region is a single point that the
        geometric convergence only reaches in the limit.
        """
        comm = self.alpha * self.period
        tolerance = CONVERGENCE_TOLERANCE_FRACTION * self.period
        for i, d in enumerate(self.deltas):
            wrapped = d % self.period
            if comm - tolerance <= wrapped <= self.period - comm + tolerance:
                return i
        return None

    def steady_state_error(self, settle_fraction: float = 0.5) -> np.ndarray:
        """Signed distance from the nearest loss minimum after settling."""
        start = int(len(self.deltas) * settle_fraction)
        comm = self.alpha * self.period
        lo, hi = comm, self.period - comm
        errors = []
        for d in self.deltas[start:]:
            wrapped = d % self.period
            if lo <= wrapped <= hi:
                errors.append(0.0)
            elif wrapped < lo:
                errors.append(wrapped - lo)
            else:
                errors.append(wrapped - hi)
        return np.array(errors)


def gradient_descent(
    delta0: float,
    alpha: float,
    period: float,
    iterations: int,
    slope: float = PAPER_SLOPE,
    intercept: float = PAPER_INTERCEPT,
    noise_sigma: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> DescentTrajectory:
    """Iterate ``delta <- delta + signed_shift(delta) + noise`` (paper §4).

    ``noise_sigma`` is the std of the zero-mean Gaussian noise on *each
    job's* iteration time; the start-time difference absorbs the difference
    of the two jobs' noises, i.e. Gaussian with std ``sqrt(2) * sigma``.
    """
    _validate_model(alpha, period, slope, intercept)
    if not -math.inf < delta0 < math.inf:
        raise ValueError(f"delta0 must be finite, got {delta0!r}")
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations!r}")
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(
            f"noise_sigma must be non-negative and finite, got {noise_sigma!r}"
        )
    if noise_sigma > 0 and rng is None:
        rng = np.random.default_rng(0)

    deltas = np.empty(iterations + 1)
    deltas[0] = delta0 % period
    current = deltas[0]
    for i in range(iterations):
        step = signed_shift(current, alpha, period, slope, intercept)
        if noise_sigma > 0:
            assert rng is not None
            step += rng.normal(0.0, noise_sigma) - rng.normal(0.0, noise_sigma)
        current = (current + step) % period
        deltas[i + 1] = current
    return DescentTrajectory(
        deltas=deltas,
        alpha=alpha,
        period=period,
        slope=slope,
        intercept=intercept,
        noise_sigma=noise_sigma,
    )


def convergence_error_std(
    noise_sigma: float,
    slope: float = PAPER_SLOPE,
    intercept: float = PAPER_INTERCEPT,
) -> float:
    """Paper §4 bound: steady-state error std = ``2*sigma*(1 + I/S)``."""
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(
            f"noise_sigma must be non-negative and finite, got {noise_sigma!r}"
        )
    if not 0.0 < slope < math.inf:
        raise ValueError(f"slope must be positive and finite for the bound, got {slope!r}")
    if not 0.0 <= intercept < math.inf:
        raise ValueError(f"intercept must be non-negative and finite, got {intercept!r}")
    return 2.0 * noise_sigma * (1.0 + intercept / slope)


def iterations_to_converge(
    delta0: float,
    alpha: float,
    period: float,
    slope: float = PAPER_SLOPE,
    intercept: float = PAPER_INTERCEPT,
    tolerance_fraction: float = CONVERGENCE_TOLERANCE_FRACTION,
    max_iterations: int = 10_000,
) -> Optional[int]:
    """Noise-free iterations until the overlap shrinks below a tolerance.

    Returns ``None`` when ``delta0`` sits exactly on the unstable equilibrium
    (full overlap, ``delta = 0``) or when ``max_iterations`` is exhausted.
    """
    _validate_model(alpha, period, slope, intercept)
    if not -math.inf < delta0 < math.inf:
        raise ValueError(f"delta0 must be finite, got {delta0!r}")
    if not 0.0 <= tolerance_fraction < math.inf:
        raise ValueError(
            f"tolerance_fraction must be non-negative and finite, got {tolerance_fraction!r}"
        )
    comm = alpha * period
    tolerance = tolerance_fraction * period
    current = delta0 % period
    if current == 0.0:
        return None
    for i in range(max_iterations + 1):
        wrapped = current % period
        if comm - tolerance <= wrapped <= period - comm + tolerance:
            return i
        current = (current + signed_shift(current, alpha, period, slope, intercept)) % period
    return None


@dataclass
class MultiJobDescent:
    """Gradient descent over N periodic jobs' start offsets (§5 discussion).

    Generalizes the two-job model: the loss is the sum of pairwise losses and
    each offset moves by the sum of pairwise signed shifts against every
    other job.  Used by the job-count ablation to show that the
    gradient-descent view extends beyond two jobs.
    """

    alpha: float
    period: float
    slope: float = PAPER_SLOPE
    intercept: float = PAPER_INTERCEPT
    damping: float = 1.0
    _offsets: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        _validate_model(self.alpha, self.period, self.slope, self.intercept)
        if not 0 < self.damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {self.damping!r}")

    def run(
        self,
        offsets0: Sequence[float],
        iterations: int,
        noise_sigma: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Return offsets per iteration, shape ``(iterations+1, n_jobs)``."""
        if not 0.0 <= noise_sigma < math.inf:
            raise ValueError(
                f"noise_sigma must be non-negative and finite, got {noise_sigma!r}"
            )
        if iterations < 0:
            raise ValueError(f"iterations must be non-negative, got {iterations!r}")
        offsets = np.array([o % self.period for o in offsets0], dtype=float)
        if offsets.ndim != 1 or len(offsets) < 2:
            raise ValueError("need at least two job offsets")
        if not np.isfinite(offsets).all():
            raise ValueError(f"offsets0 must be finite, got {list(offsets0)!r}")
        if noise_sigma > 0 and rng is None:
            rng = np.random.default_rng(0)
        history = np.empty((iterations + 1, len(offsets)))
        history[0] = offsets
        for i in range(iterations):
            offsets = self._step(offsets, noise_sigma, rng)
            history[i + 1] = offsets
        return history

    def total_overlap(self, offsets: Sequence[float]) -> float:
        """Sum of pairwise communication-phase overlaps (contention proxy)."""
        comm = self.alpha * self.period
        total = 0.0
        arr = [o % self.period for o in offsets]
        for i in range(len(arr)):
            for j in range(i + 1, len(arr)):
                d = abs(arr[i] - arr[j]) % self.period
                d = min(d, self.period - d)
                total += max(0.0, comm - d)
        return total

    def _step(
        self,
        offsets: np.ndarray,
        noise_sigma: float,
        rng: Optional[np.random.Generator],
    ) -> np.ndarray:
        moves = np.zeros_like(offsets)
        for i in range(len(offsets)):
            for j in range(len(offsets)):
                if i == j:
                    continue
                d = (offsets[j] - offsets[i]) % self.period
                # A positive signed shift of pair (i leads j) moves j later,
                # i earlier; split it symmetrically between the two jobs.
                s = signed_shift(d, self.alpha, self.period, self.slope, self.intercept)
                moves[j] += 0.5 * s
                moves[i] -= 0.5 * s
        moves *= self.damping
        if noise_sigma > 0:
            assert rng is not None
            moves += rng.normal(0.0, noise_sigma, size=len(offsets))
        return (offsets + moves) % self.period


def _validate_model(alpha: float, period: float, slope: float, intercept: float) -> None:
    if not 0.0 < alpha <= 0.5:
        raise ValueError(
            f"alpha must be in (0, 0.5] for a two-job interleave to exist, got {alpha!r}"
        )
    if not 0.0 < period < math.inf:  # NaN fails these tests too
        raise ValueError(f"period must be positive and finite, got {period!r}")
    if not 0.0 < slope < math.inf:
        raise ValueError(f"slope must be positive and finite, got {slope!r}")
    if not 0.0 < intercept < math.inf:
        raise ValueError(f"intercept must be positive and finite, got {intercept!r}")
