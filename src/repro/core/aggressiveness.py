"""Bandwidth aggressiveness functions (paper §3.1, Eq. 2, Figure 3).

MLTCP scales the congestion-window (or rate) increase step of a flow by
``F(bytes_ratio)``, where ``bytes_ratio`` is the fraction of the current
training iteration's bytes that the flow has already delivered.  The paper
states three requirements for a valid aggressiveness function:

(i)   its range is large enough to absorb network noise,
(ii)  its derivative is non-negative (monotonically non-decreasing), and
(iii) all flows employ the same function.

This module provides the six functions evaluated in the paper's Figure 3
(``F1`` … ``F6``), the linear family the paper adopts (Eq. 2), and helpers
to validate requirement (ii) numerically.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

__all__ = [
    "AggressivenessFunction",
    "LinearAggressiveness",
    "QuadraticAggressiveness",
    "ReciprocalAggressiveness",
    "ConcaveQuadraticAggressiveness",
    "DecreasingLinearAggressiveness",
    "DecreasingQuarticAggressiveness",
    "ConstantAggressiveness",
    "PAPER_SLOPE",
    "PAPER_INTERCEPT",
    "paper_functions",
    "default_aggressiveness",
    "is_monotone_non_decreasing",
]

#: Constants the paper uses for the deployed linear function (Eq. 2).
PAPER_SLOPE = 1.75
PAPER_INTERCEPT = 0.25


def _clamp_ratio(bytes_ratio: float) -> float:
    """Clamp a bytes ratio into the valid domain [0, 1].

    Algorithm 1 already computes ``bytes_ratio = min(1, bytes_sent /
    total_bytes)``, but callers that estimate ``total_bytes`` online can
    transiently produce values slightly outside the domain; clamping keeps
    every aggressiveness function total on real inputs.
    """
    if math.isnan(bytes_ratio):
        raise ValueError("bytes_ratio must be a number, got NaN")
    return min(1.0, max(0.0, bytes_ratio))


def _check_finite(**params: float) -> None:
    """Raise ``ValueError`` naming the first parameter that is NaN or infinite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class AggressivenessFunction(ABC):
    """A bandwidth aggressiveness function ``F: [0, 1] -> (0, inf)``.

    Subclasses implement :meth:`_evaluate` on the clamped domain; calling the
    instance clamps the input first, so integrations with noisy online
    estimates of ``total_bytes`` never leave the domain.
    """

    #: Human-readable name used in reports and benchmark output.
    name: str = "F"

    @abstractmethod
    def _evaluate(self, bytes_ratio: float) -> float:
        """Evaluate the function at a ratio already clamped into [0, 1]."""

    def __call__(self, bytes_ratio: float) -> float:
        value = self._evaluate(_clamp_ratio(bytes_ratio))
        if not 0.0 <= value < math.inf:  # NaN fails this test too
            raise ValueError(
                f"{self.name} produced an aggressiveness of {value!r}; "
                "aggressiveness must be finite and non-negative"
            )
        return value

    def is_increasing(self, samples: int = 257) -> bool:
        """Whether the function satisfies requirement (ii) on a sample grid."""
        return is_monotone_non_decreasing(self, samples=samples)

    def range_span(self, samples: int = 257) -> float:
        """Spread between the largest and smallest sampled value.

        Requirement (i) asks for a range "large enough to absorb the noise";
        this helper quantifies it so experiments can sweep it.
        """
        values = [self(i / (samples - 1)) for i in range(samples)]
        return max(values) - min(values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


@dataclass(frozen=True, repr=False)
class LinearAggressiveness(AggressivenessFunction):
    """The paper's deployed function, Eq. 2: ``F = slope * ratio + intercept``.

    The paper selects a linear form "to simplify MLTCP's implementation in
    the Linux kernel and to minimize computational overhead", with
    ``slope = 1.75`` and ``intercept = 0.25`` (range 0.25 – 2.0).
    """

    slope: float = PAPER_SLOPE
    intercept: float = PAPER_INTERCEPT
    name: str = "F1-linear"

    def __post_init__(self) -> None:
        _check_finite(slope=self.slope, intercept=self.intercept)
        if self.intercept <= 0.0:
            raise ValueError(
                f"intercept must be positive so flows never fully stall, "
                f"got {self.intercept!r}"
            )
        if self.slope < 0.0:
            raise ValueError(
                f"slope must be non-negative (requirement ii), got {self.slope!r}"
            )

    def _evaluate(self, bytes_ratio: float) -> float:
        return self.slope * bytes_ratio + self.intercept


@dataclass(frozen=True, repr=False)
class QuadraticAggressiveness(AggressivenessFunction):
    """Paper's F2: ``1.75 * ratio**2 + 0.25`` (convex increasing)."""

    coefficient: float = PAPER_SLOPE
    intercept: float = PAPER_INTERCEPT
    name: str = "F2-quadratic"

    def __post_init__(self) -> None:
        _check_finite(coefficient=self.coefficient, intercept=self.intercept)

    def _evaluate(self, bytes_ratio: float) -> float:
        return self.coefficient * bytes_ratio**2 + self.intercept


@dataclass(frozen=True, repr=False)
class ReciprocalAggressiveness(AggressivenessFunction):
    """Paper's F3: ``1 / (-3.5 * ratio + 4)`` (increasing, range 0.25 – 2)."""

    name: str = "F3-reciprocal"

    def _evaluate(self, bytes_ratio: float) -> float:
        return 1.0 / (-3.5 * bytes_ratio + 4.0)


@dataclass(frozen=True, repr=False)
class ConcaveQuadraticAggressiveness(AggressivenessFunction):
    """Paper's F4: ``-1.75 * ratio**2 + 3.5 * ratio + 0.25`` (concave incr.)."""

    name: str = "F4-concave"

    def _evaluate(self, bytes_ratio: float) -> float:
        return -1.75 * bytes_ratio**2 + 3.5 * bytes_ratio + 0.25


@dataclass(frozen=True, repr=False)
class DecreasingLinearAggressiveness(AggressivenessFunction):
    """Paper's F5: ``-1.75 * ratio + 2``.

    Violates requirement (ii); included because Figure 3 uses it as a
    negative control showing decreasing functions never interleave.
    """

    name: str = "F5-decreasing-linear"

    def _evaluate(self, bytes_ratio: float) -> float:
        return -1.75 * bytes_ratio + 2.0


@dataclass(frozen=True, repr=False)
class DecreasingQuarticAggressiveness(AggressivenessFunction):
    """Paper's F6: ``-1.75 * ratio**4 + 2`` (second negative control)."""

    name: str = "F6-decreasing-quartic"

    def _evaluate(self, bytes_ratio: float) -> float:
        return -1.75 * bytes_ratio**4 + 2.0


@dataclass(frozen=True, repr=False)
class ConstantAggressiveness(AggressivenessFunction):
    """``F = value`` — reduces MLTCP-X exactly to plain X (Reno, CUBIC, ...).

    Useful as the identity element in tests and ablations: with
    ``value=1.0`` the MLTCP window update (Eq. 1) becomes the standard
    additive-increase update.
    """

    value: float = 1.0
    name: str = "constant"

    def __post_init__(self) -> None:
        _check_finite(value=self.value)
        if self.value <= 0.0:
            raise ValueError(f"constant aggressiveness must be positive, got {self.value!r}")

    def _evaluate(self, bytes_ratio: float) -> float:
        return self.value


def paper_functions() -> dict[str, AggressivenessFunction]:
    """The six functions compared in the paper's Figure 3, keyed F1 … F6."""
    return {
        "F1": LinearAggressiveness(),
        "F2": QuadraticAggressiveness(),
        "F3": ReciprocalAggressiveness(),
        "F4": ConcaveQuadraticAggressiveness(),
        "F5": DecreasingLinearAggressiveness(),
        "F6": DecreasingQuarticAggressiveness(),
    }


def default_aggressiveness() -> LinearAggressiveness:
    """The function the paper deploys: linear, slope 1.75, intercept 0.25."""
    return LinearAggressiveness()


def is_monotone_non_decreasing(
    function: AggressivenessFunction, samples: int = 257, tolerance: float = 1e-12
) -> bool:
    """Numerically check requirement (ii) on an even grid over [0, 1]."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    previous = function(0.0)
    for i in range(1, samples):
        current = function(i / (samples - 1))
        if current < previous - tolerance:
            return False
        previous = current
    return True
