"""Tests for the closed-form loss and escape-rate analysis additions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from repro.core.aggressiveness import PAPER_INTERCEPT, PAPER_SLOPE
from repro.core.analysis import (
    escape_rate,
    iterations_to_converge,
    loss,
    predicted_convergence_iterations,
    signed_shift,
)


def quadrature_loss(
    delta, alpha, period, slope=PAPER_SLOPE, intercept=PAPER_INTERCEPT
):
    """Eq. 4 by numerical integration of the signed shift: the oracle."""
    value, _abserr = integrate.quad(
        lambda x: -signed_shift(x, alpha, period, slope, intercept),
        0.0,
        delta % period,
        limit=200,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    return value


class TestClosedFormLoss:
    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.45, 0.9, 1.35, 1.7, 1.8])
    def test_matches_quadrature_alpha_half(self, delta):
        assert loss(delta, 0.5, 1.8) == pytest.approx(
            quadrature_loss(delta, 0.5, 1.8), abs=1e-8
        )

    @pytest.mark.parametrize("delta", [0.0, 0.2, 0.45, 0.9, 1.35, 1.6])
    def test_matches_quadrature_alpha_quarter(self, delta):
        """Plateau and mirror regions agree too."""
        assert loss(delta, 0.25, 1.8) == pytest.approx(
            quadrature_loss(delta, 0.25, 1.8), abs=1e-8
        )

    @given(
        delta=st.floats(min_value=0.0, max_value=1.8),
        alpha=st.floats(min_value=0.1, max_value=0.5),
        slope=st.floats(min_value=0.5, max_value=4.0),
        intercept=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_quadrature_property(self, delta, alpha, slope, intercept):
        closed = loss(delta, alpha, 1.8, slope, intercept)
        numeric = quadrature_loss(delta, alpha, 1.8, slope, intercept)
        assert closed == pytest.approx(numeric, abs=1e-6)

    def test_symmetry(self):
        assert loss(0.3, 0.5, 1.8) == pytest.approx(loss(1.5, 0.5, 1.8), abs=1e-10)

    def test_minimum_at_interleave(self):
        deltas = np.linspace(0, 1.8, 181)
        values = [loss(d, 0.5, 1.8) for d in deltas]
        assert deltas[int(np.argmin(values))] == pytest.approx(0.9, abs=0.02)


class TestEscapeRate:
    def test_paper_constants_give_eight(self):
        """Slope 1.75 / Intercept 0.25: small offsets grow 8x per iteration."""
        assert escape_rate() == pytest.approx(8.0)

    def test_rate_grows_with_slope(self):
        assert escape_rate(slope=3.5) > escape_rate(slope=1.75)

    def test_validation(self):
        with pytest.raises(ValueError, match="slope"):
            escape_rate(slope=0.0)
        with pytest.raises(ValueError, match="intercept"):
            escape_rate(intercept=0.0)


class TestPredictedConvergence:
    def test_prediction_close_to_iterated_dynamics(self):
        predicted = predicted_convergence_iterations(0.05, 0.5, 1.8)
        actual = iterations_to_converge(0.05, 0.5, 1.8)
        assert actual is not None
        # The exponential model slightly under-estimates (shift tapers off).
        assert predicted <= actual + 0.5
        assert actual <= predicted + 4

    def test_closer_start_predicts_fewer(self):
        far = predicted_convergence_iterations(0.01, 0.5, 1.8)
        near = predicted_convergence_iterations(0.5, 0.5, 1.8)
        assert near < far

    def test_domain_validated(self):
        with pytest.raises(ValueError, match="overlap region"):
            predicted_convergence_iterations(0.0, 0.5, 1.8)
        with pytest.raises(ValueError, match="overlap region"):
            predicted_convergence_iterations(1.0, 0.5, 1.8)
