"""Validation of custom aggressiveness functions against the paper's rules.

§3.1 states three requirements for a bandwidth aggressiveness function:
(i) a range large enough to absorb network noise, (ii) a non-negative
derivative, (iii) all flows using the same function.  (iii) is a deployment
property; (i) and (ii) — plus basic sanity (positive, finite) — are
checkable per function.  :func:`validate_aggressiveness` returns a list of
human-readable violations (empty = valid), so operators can lint a custom
function before rolling it out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aggressiveness import AggressivenessFunction

__all__ = ["ValidationIssue", "validate_aggressiveness"]

#: Default minimum range span for requirement (i).  The paper's functions
#: all span 1.75; a function spanning less than ~0.5 barely differentiates
#: flows and risks being lost in RTT/iteration-time noise.
DEFAULT_MIN_RANGE = 0.5


@dataclass(frozen=True)
class ValidationIssue:
    """One violated requirement."""

    requirement: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.requirement}] {self.detail}"


def validate_aggressiveness(
    function: AggressivenessFunction,
    min_range: float = DEFAULT_MIN_RANGE,
    samples: int = 257,
) -> list[ValidationIssue]:
    """Check a function against §3.1's requirements on a sample grid.

    Returns an empty list when the function is deployable.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    issues: list[ValidationIssue] = []
    values = []
    for i in range(samples):
        ratio = i / (samples - 1)
        try:
            value = function(ratio)
        except Exception as error:  # noqa: BLE001 - reported, not raised
            issues.append(
                ValidationIssue(
                    requirement="totality",
                    detail=f"F({ratio:.3f}) raised {type(error).__name__}: {error}",
                )
            )
            return issues
        values.append((ratio, value))

    for ratio, value in values:
        if not math.isfinite(value):
            issues.append(
                ValidationIssue(
                    requirement="finiteness",
                    detail=f"F({ratio:.3f}) = {value!r} is not finite",
                )
            )
            return issues
        if value <= 0.0:
            issues.append(
                ValidationIssue(
                    requirement="positivity",
                    detail=(
                        f"F({ratio:.3f}) = {value:.4g} <= 0: a zero weight "
                        "stalls the flow entirely (and starves it, "
                        "violating the §5 no-starvation property)"
                    ),
                )
            )
            break

    span = max(v for _r, v in values) - min(v for _r, v in values)
    if span < min_range:
        issues.append(
            ValidationIssue(
                requirement="(i) range",
                detail=(
                    f"range span {span:.4g} < {min_range:.4g}: too small to "
                    "absorb RTT/iteration-time noise (paper's functions "
                    "span 1.75)"
                ),
            )
        )

    for (r0, v0), (r1, v1) in zip(values, values[1:]):
        if v1 < v0 - 1e-12:
            issues.append(
                ValidationIssue(
                    requirement="(ii) monotonicity",
                    detail=(
                        f"F decreases between {r0:.3f} and {r1:.3f} "
                        f"({v0:.4g} -> {v1:.4g}): decreasing functions "
                        "never interleave (paper Figure 3, F5/F6)"
                    ),
                )
            )
            break

    return issues

