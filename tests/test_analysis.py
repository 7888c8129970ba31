"""Unit tests for the §4 theory: shift (Eq. 3), loss (Eq. 4), descent."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from repro.core.analysis import (
    MultiJobDescent,
    TwoJobModel,
    convergence_error_std,
    gradient_descent,
    iterations_to_converge,
    loss,
    loss_curve,
    shift,
    signed_shift,
)

ALPHA, PERIOD = 0.5, 1.8


class TestShift:
    def test_formula_matches_eq3(self):
        """Spot-check Eq. 3 against a hand computation."""
        delta, slope, intercept = 0.3, 1.75, 0.25
        comm = ALPHA * PERIOD
        expected = slope * delta * (comm - delta) / (comm * intercept + delta * slope)
        assert shift(delta, ALPHA, PERIOD, slope, intercept) == pytest.approx(expected)

    def test_zero_at_full_overlap(self):
        """delta = 0 is the (unstable) equilibrium: no shift."""
        assert shift(0.0, ALPHA, PERIOD) == 0.0

    def test_zero_once_disjoint(self):
        assert shift(ALPHA * PERIOD, ALPHA, PERIOD) == 0.0
        assert shift(ALPHA * PERIOD + 0.1, ALPHA, PERIOD) == 0.0

    def test_positive_in_overlap_region(self):
        for delta in (0.01, 0.2, 0.5, 0.85):
            assert shift(delta * ALPHA * PERIOD, ALPHA, PERIOD) > 0.0

    def test_shift_bounded_by_overlap(self):
        """One iteration's shift can never exceed the remaining overlap."""
        comm = ALPHA * PERIOD
        for delta in np.linspace(0.01, comm - 0.01, 37):
            assert shift(delta, ALPHA, PERIOD) <= comm - delta + 1e-12

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError, match="delta"):
            shift(-0.1, ALPHA, PERIOD)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            shift(0.1, 0.9, PERIOD)
        with pytest.raises(ValueError, match="alpha"):
            shift(0.1, 0.0, PERIOD)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="period"):
            shift(0.1, ALPHA, -1.0)
        with pytest.raises(ValueError, match="slope"):
            shift(0.1, ALPHA, PERIOD, slope=0.0)
        with pytest.raises(ValueError, match="intercept"):
            shift(0.1, ALPHA, PERIOD, intercept=0.0)

    def test_larger_slope_larger_shift(self):
        """Aggressiveness slope controls the descent step size."""
        small = shift(0.3, ALPHA, PERIOD, slope=1.0)
        large = shift(0.3, ALPHA, PERIOD, slope=3.0)
        assert large > small


class TestSignedShift:
    def test_matches_shift_in_first_half(self):
        assert signed_shift(0.3, ALPHA, PERIOD) == pytest.approx(
            shift(0.3, ALPHA, PERIOD)
        )

    def test_antisymmetric_near_period(self):
        """delta near T pushes back down: signed_shift(T-d) = -shift(d)."""
        d = 0.3
        assert signed_shift(PERIOD - d, ALPHA, PERIOD) == pytest.approx(
            -shift(d, ALPHA, PERIOD)
        )

    def test_wraps_modulo_period(self):
        assert signed_shift(0.3 + PERIOD, ALPHA, PERIOD) == pytest.approx(
            signed_shift(0.3, ALPHA, PERIOD)
        )

    def test_zero_in_disjoint_plateau(self):
        """With alpha < 0.5 there is a flat valley of interleaved states."""
        alpha = 0.25
        comm = alpha * PERIOD
        mid = (comm + (PERIOD - comm)) / 2
        assert signed_shift(mid, alpha, PERIOD) == 0.0


class TestLoss:
    def test_loss_zero_at_origin(self):
        assert loss(0.0, ALPHA, PERIOD) == pytest.approx(0.0, abs=1e-9)

    def test_minimum_at_half_period_for_alpha_half(self):
        """Figure 5(c): for alpha = 1/2 the loss is minimal at T/2."""
        deltas, losses = loss_curve(ALPHA, PERIOD, samples=181)
        min_delta = deltas[np.argmin(losses)]
        assert min_delta == pytest.approx(PERIOD / 2, abs=PERIOD / 90)

    def test_monotone_decreasing_to_minimum(self):
        deltas, losses = loss_curve(ALPHA, PERIOD, samples=181)
        first_half = losses[deltas <= PERIOD / 2]
        assert np.all(np.diff(first_half) <= 1e-9)

    def test_symmetric_about_half_period(self):
        deltas, losses = loss_curve(ALPHA, PERIOD, samples=181)
        assert losses[0] == pytest.approx(losses[-1], abs=1e-6)

    def test_loss_curve_matches_quadrature(self):
        """Trapezoidal curve agrees with scipy.quad pointwise."""
        deltas, losses = loss_curve(ALPHA, PERIOD, samples=721)
        for probe in (0.3, 0.9, 1.5):
            idx = np.argmin(np.abs(deltas - probe))
            assert losses[idx] == pytest.approx(
                loss(probe, ALPHA, PERIOD), abs=5e-4
            )

    @given(
        alpha=st.floats(min_value=0.01, max_value=0.5),
        period=st.floats(min_value=1e-3, max_value=1e3),
        slope=st.floats(min_value=0.01, max_value=10.0),
        intercept=st.floats(min_value=0.01, max_value=10.0),
        samples=st.integers(min_value=3, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_loss_curve_is_scipys_cumulative_trapezoid(
        self, alpha, period, slope, intercept, samples
    ):
        """The numpy sum reproduces scipy's to the bit, dtype included."""
        deltas, losses = loss_curve(alpha, period, slope, intercept, samples)
        shifts = np.array(
            [signed_shift(d, alpha, period, slope, intercept) for d in deltas]
        )
        oracle = cumulative_trapezoid(-shifts, deltas, initial=0.0)
        assert losses.dtype == oracle.dtype
        assert losses.tobytes() == oracle.tobytes()

    def test_loss_curve_needs_samples(self):
        with pytest.raises(ValueError, match="samples"):
            loss_curve(ALPHA, PERIOD, samples=2)


class TestGradientDescent:
    def test_converges_to_interleave(self):
        trajectory = gradient_descent(0.05, ALPHA, PERIOD, 60)
        assert trajectory.final_delta == pytest.approx(PERIOD / 2, abs=0.02)

    def test_converges_within_about_twenty_iterations(self):
        """§2: 'MLTCP converges to an interleaved state within 20 iterations'."""
        trajectory = gradient_descent(0.05, ALPHA, PERIOD, 60)
        assert trajectory.converged_iteration is not None
        assert trajectory.converged_iteration <= 25

    def test_stuck_at_unstable_equilibrium_without_noise(self):
        trajectory = gradient_descent(0.0, ALPHA, PERIOD, 30)
        assert trajectory.final_delta == 0.0

    def test_noise_escapes_equilibrium(self):
        rng = np.random.default_rng(1)
        trajectory = gradient_descent(
            0.0, ALPHA, PERIOD, 400, noise_sigma=0.01, rng=rng
        )
        assert abs(trajectory.final_delta - PERIOD / 2) < 0.25

    def test_descends_from_above(self):
        """Starting past T/2 the wrapped dynamics still reach the valley."""
        trajectory = gradient_descent(PERIOD - 0.05, ALPHA, PERIOD, 80)
        assert trajectory.final_delta == pytest.approx(PERIOD / 2, abs=0.02)

    def test_trajectory_length(self):
        trajectory = gradient_descent(0.1, ALPHA, PERIOD, 10)
        assert len(trajectory.deltas) == 11

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            gradient_descent(0.1, ALPHA, PERIOD, 0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            gradient_descent(0.1, ALPHA, PERIOD, 10, noise_sigma=-1.0)

    def test_steady_state_error_zero_without_noise(self):
        trajectory = gradient_descent(0.3, ALPHA, PERIOD, 100)
        errors = trajectory.steady_state_error()
        assert np.abs(errors).max() < 0.02


class TestErrorBound:
    def test_formula(self):
        """§4: std = 2*sigma*(1 + Intercept/Slope)."""
        assert convergence_error_std(0.01, slope=1.75, intercept=0.25) == (
            pytest.approx(2 * 0.01 * (1 + 0.25 / 1.75))
        )

    def test_zero_noise_zero_error(self):
        assert convergence_error_std(0.0) == 0.0

    def test_measured_error_within_bound(self):
        """Monte-Carlo check: steady-state error std stays under the bound."""
        sigma = 0.004
        rng = np.random.default_rng(0)
        trajectory = gradient_descent(
            0.2, ALPHA, PERIOD, 5000, noise_sigma=sigma, rng=rng
        )
        measured = trajectory.steady_state_error(settle_fraction=0.3).std()
        assert measured <= 1.5 * convergence_error_std(sigma)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="noise_sigma"):
            convergence_error_std(-0.1)
        with pytest.raises(ValueError, match="slope"):
            convergence_error_std(0.1, slope=0.0)


class TestIterationsToConverge:
    def test_returns_reasonable_count(self):
        """Eq. 3's escape rate is ~Slope/Intercept per iteration: fast."""
        count = iterations_to_converge(0.05, ALPHA, PERIOD)
        assert count is not None
        assert 1 <= count <= 30

    def test_none_from_unstable_equilibrium(self):
        assert iterations_to_converge(0.0, ALPHA, PERIOD) is None

    def test_already_converged_is_zero(self):
        assert iterations_to_converge(PERIOD / 2, ALPHA, PERIOD) == 0

    def test_closer_start_converges_sooner_or_equal(self):
        near = iterations_to_converge(0.4, ALPHA, PERIOD)
        far = iterations_to_converge(0.05, ALPHA, PERIOD)
        assert near is not None and far is not None
        assert near <= far


class TestMultiJobDescent:
    def test_overlap_decreases(self):
        descent = MultiJobDescent(alpha=0.25, period=1.8)
        history = descent.run([0.0, 0.05, 0.1], iterations=80)
        initial = descent.total_overlap(history[0])
        final = descent.total_overlap(history[-1])
        assert final < 0.1 * initial

    def test_two_jobs_matches_pairwise_model(self):
        descent = MultiJobDescent(alpha=ALPHA, period=PERIOD)
        history = descent.run([0.0, 0.1], iterations=80)
        gap = abs(history[-1][1] - history[-1][0]) % PERIOD
        gap = min(gap, PERIOD - gap)
        assert gap == pytest.approx(PERIOD / 2, abs=0.05)

    def test_history_shape(self):
        descent = MultiJobDescent(alpha=0.25, period=1.0)
        history = descent.run([0.0, 0.2, 0.4, 0.6], iterations=10)
        assert history.shape == (11, 4)

    def test_needs_two_jobs(self):
        descent = MultiJobDescent(alpha=0.25, period=1.0)
        with pytest.raises(ValueError, match="two job"):
            descent.run([0.0], iterations=5)

    def test_total_overlap_of_disjoint_jobs_is_zero(self):
        descent = MultiJobDescent(alpha=0.25, period=1.0)
        assert descent.total_overlap([0.0, 0.5]) == 0.0

    def test_rejects_bad_damping(self):
        with pytest.raises(ValueError, match="damping"):
            MultiJobDescent(alpha=0.25, period=1.0, damping=0.0)


class TestTwoJobModel:
    def test_bundles_parameters(self):
        model = TwoJobModel(alpha=ALPHA, period=PERIOD)
        assert model.comm_duration == pytest.approx(0.9)
        assert model.shift(0.3) == pytest.approx(signed_shift(0.3, ALPHA, PERIOD))
        assert model.loss(0.3) == pytest.approx(loss(0.3, ALPHA, PERIOD))

    def test_descend_delegates(self):
        model = TwoJobModel(alpha=ALPHA, period=PERIOD)
        trajectory = model.descend(0.05, 40)
        assert trajectory.alpha == ALPHA
        assert trajectory.period == PERIOD
