"""Tests for statistics and convergence metrics."""

import numpy as np
import pytest

from repro.metrics.convergence import detect_convergence
from repro.metrics.stats import empirical_cdf, percentile, tail_speedup


class TestCdf:
    def test_sorted_and_normalized(self):
        values, probs = empirical_cdf([3.0, 1.0, 2.0])
        assert list(values) == [1.0, 2.0, 3.0]
        assert probs[-1] == 1.0
        assert probs[0] == pytest.approx(1 / 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            empirical_cdf([])


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_extremes(self):
        assert percentile([1, 2, 3], 0) == 1.0
        assert percentile([1, 2, 3], 100) == 3.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="q"):
            percentile([1.0], 150)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)


class TestTailSpeedup:
    def test_paper_style_speedup(self):
        baseline = np.full(100, 2.7)
        improved = np.full(100, 1.8)
        assert tail_speedup(baseline, improved) == pytest.approx(1.5)

    def test_uses_requested_quantile(self):
        baseline = np.concatenate([np.ones(99), [10.0]])
        improved = np.ones(100)
        assert tail_speedup(baseline, improved, q=50) == pytest.approx(1.0)
        assert tail_speedup(baseline, improved, q=100) == pytest.approx(10.0)


class TestDetectConvergence:
    def test_detects_settling_point(self):
        series = [2.7, 2.5, 2.2, 1.85, 1.8, 1.81, 1.79, 1.8]
        report = detect_convergence(series, target=1.8, tolerance=0.05)
        assert report.converged_at == 3
        assert report.stable

    def test_never_converges(self):
        series = [2.7] * 10
        report = detect_convergence(series, target=1.8)
        assert not report.converged
        assert report.converged_at is None

    def test_window_requires_consecutive_points(self):
        # One lucky sample inside tolerance must not count as convergence.
        series = [2.7, 1.8, 2.7, 2.7, 2.7]
        report = detect_convergence(series, target=1.8, window=3)
        assert not report.converged

    def test_unstable_after_convergence(self):
        series = [1.8] * 5 + [2.7] * 15
        report = detect_convergence(series, target=1.8, window=3)
        assert report.converged
        assert not report.stable

    def test_validation(self):
        with pytest.raises(ValueError, match="target"):
            detect_convergence([1.0], target=0.0)
        with pytest.raises(ValueError, match="empty"):
            detect_convergence([], target=1.0)
        with pytest.raises(ValueError, match="window"):
            detect_convergence([1.0], target=1.0, window=0)


class TestJainFairness:
    def test_equal_allocations_give_one(self):
        from repro.metrics.stats import jain_fairness

        assert jain_fairness([10.0, 10.0, 10.0]) == pytest.approx(1.0)

    def test_single_hog_gives_one_over_n(self):
        from repro.metrics.stats import jain_fairness

        assert jain_fairness([30.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_mltcp_extremes_stay_reasonable(self):
        """F's range is 0.25-2: even the most skewed two-flow MLTCP split
        (1:8) keeps Jain's index above 0.6 — unfair, not starving."""
        from repro.metrics.stats import jain_fairness

        assert jain_fairness([1.0, 8.0]) > 0.6

    def test_validation(self):
        from repro.metrics.stats import jain_fairness

        with pytest.raises(ValueError, match="empty"):
            jain_fairness([])
        with pytest.raises(ValueError, match="non-negative"):
            jain_fairness([-1.0, 1.0])
        with pytest.raises(ValueError, match="zero"):
            jain_fairness([0.0, 0.0])
