"""MLTCP's primary contribution: aggressiveness functions, Algorithm 1
iteration tracking, and the §4 gradient-descent analysis."""

from .aggressiveness import (
    AggressivenessFunction,
    ConcaveQuadraticAggressiveness,
    ConstantAggressiveness,
    DecreasingLinearAggressiveness,
    DecreasingQuarticAggressiveness,
    LinearAggressiveness,
    PAPER_INTERCEPT,
    PAPER_SLOPE,
    QuadraticAggressiveness,
    ReciprocalAggressiveness,
    default_aggressiveness,
    is_monotone_non_decreasing,
    paper_functions,
)
from .analysis import (
    DescentTrajectory,
    MultiJobDescent,
    convergence_error_std,
    escape_rate,
    gradient_descent,
    iterations_to_converge,
    loss,
    loss_curve,
    predicted_convergence_iterations,
    shift,
    signed_shift,
)
from .config import DEFAULT_MTU_BYTES, MLTCPConfig
from .validation import (
    ValidationIssue,
    validate_aggressiveness,
)
from .iteration import IterationRecord, IterationTracker

__all__ = [
    "AggressivenessFunction",
    "ConcaveQuadraticAggressiveness",
    "ConstantAggressiveness",
    "DecreasingLinearAggressiveness",
    "DecreasingQuarticAggressiveness",
    "LinearAggressiveness",
    "QuadraticAggressiveness",
    "ReciprocalAggressiveness",
    "PAPER_SLOPE",
    "PAPER_INTERCEPT",
    "paper_functions",
    "default_aggressiveness",
    "is_monotone_non_decreasing",
    "MLTCPConfig",
    "DEFAULT_MTU_BYTES",
    "IterationTracker",
    "IterationRecord",
    "DescentTrajectory",
    "MultiJobDescent",
    "shift",
    "signed_shift",
    "loss",
    "loss_curve",
    "gradient_descent",
    "iterations_to_converge",
    "convergence_error_std",
    "escape_rate",
    "predicted_convergence_iterations",
    "ValidationIssue",
    "validate_aggressiveness",
]
