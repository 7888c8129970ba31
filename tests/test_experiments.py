"""Tests for the per-figure experiment runners (reduced-scale)."""

import numpy as np
import pytest

from repro.core.aggressiveness import (
    DecreasingLinearAggressiveness,
    LinearAggressiveness,
)
from repro.harness.experiments import (
    fairness_competition_share,
    fairness_loss_response,
    fig1_traffic_patterns,
    fig2_schedules,
    fig3_aggressiveness,
    fig4_six_jobs,
    fig5_loss_function,
    noise_error_bound,
)


class TestFig1:
    def test_trace_per_job(self):
        traces = fig1_traffic_patterns(duration=4.0)
        assert set(traces) == {"J1", "J2", "J3", "J4"}

    def test_gpt3_demand_plateau(self):
        traces = fig1_traffic_patterns(duration=4.0)
        _t, demand = traces["J1"]
        assert demand.max() == pytest.approx(25.0, rel=0.01)

    def test_gpt2_double_hump_texture(self):
        traces = fig1_traffic_patterns(duration=4.0)
        _t, demand = traces["J2"]
        comm = demand[demand > 0]
        assert comm.max() > comm.min() * 1.5


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_schedules(iterations=40)

    def test_optimal_matches_paper(self, result):
        """Figure 2(a): J1 1.2 s, J2-J4 1.8 s."""
        assert result.optimal_times["J1"] == pytest.approx(1.2, rel=0.02)
        assert result.optimal_times["J2"] == pytest.approx(1.8, rel=0.02)

    def test_optimal_schedule_interleaved(self, result):
        assert result.schedule.is_interleaved

    def test_srpt_delays_j1(self, result):
        """Figure 2(b): SRPT head-of-line blocks the big GPT-3 job."""
        assert result.srpt_j1_slowdown > 1.15

    def test_srpt_suboptimal_overall(self, result):
        srpt_avg = np.mean(list(result.srpt_times.values()))
        optimal_avg = np.mean(list(result.optimal_times.values()))
        assert srpt_avg > 1.05 * optimal_avg

    def test_mltcp_converges_to_optimal(self, result):
        """§2: within 5% of the centralized optimum."""
        assert result.mltcp_gap_vs_optimal < 0.05

    def test_mltcp_converges_within_twenty_iterations(self, result):
        """§2: 'MLTCP converges to an interleaved state within 20 iterations'."""
        assert result.mltcp_converged_at is not None
        assert result.mltcp_converged_at <= 20


class TestFig3:
    @pytest.fixture(scope="class")
    def series(self):
        return fig3_aggressiveness(iterations=35)

    def test_all_six_functions_present(self, series):
        assert set(series) == {"F1", "F2", "F3", "F4", "F5", "F6"}

    @pytest.mark.parametrize("key", ["F1", "F2", "F3", "F4"])
    def test_increasing_functions_interleave(self, series, key):
        """Iteration time decreases toward the 1.05 s ideal."""
        tail = series[key][-5:].mean()
        assert tail == pytest.approx(1.05, rel=0.03)

    @pytest.mark.parametrize("key", ["F5", "F6"])
    def test_decreasing_functions_stay_congested(self, series, key):
        tail = series[key][-5:].mean()
        assert tail > 1.15

    def test_custom_function_subset(self):
        series = fig3_aggressiveness(
            iterations=10,
            functions={"up": LinearAggressiveness(), "down": DecreasingLinearAggressiveness()},
        )
        assert set(series) == {"up", "down"}


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        # The p99 is over the pooled lifetime; the lifetime must dwarf the
        # convergence transient (see fig4_six_jobs docstring).
        return fig4_six_jobs(iterations=400)

    def test_mltcp_tail_speedup(self, result):
        """Figure 4(c): the paper reports 1.59x; shape requires > 1.25x."""
        assert result.tail_speedup_p99 > 1.25

    def test_mltcp_reaches_ideal(self, result):
        last = result.mltcp_result.mean_iteration_by_round()[-5:]
        assert last.mean() == pytest.approx(1.8, rel=0.03)

    def test_reno_stays_congested(self, result):
        last = result.reno_result.mean_iteration_by_round()[-5:]
        assert last.mean() > 1.9

    def test_results_carry_no_segments(self, result):
        """Only per-iteration times are read, so no rate segment is kept."""
        assert result.reno_result.segments == []
        assert result.mltcp_result.segments == []

    def test_cdfs_well_formed(self, result):
        cdfs = result.cdfs()
        for _name, (values, probs) in cdfs.items():
            assert np.all(np.diff(values) >= 0)
            assert probs[-1] == 1.0


class TestFig5:
    def test_loss_minimum_at_half_period(self):
        curves = fig5_loss_function(alpha=0.5, period=1.8)
        idx = np.argmin(curves["loss"])
        assert curves["delta"][idx] == pytest.approx(0.9, abs=0.02)

    def test_shift_positive_before_minimum(self):
        curves = fig5_loss_function()
        before = curves["shift"][(curves["delta"] > 0.01) & (curves["delta"] < 0.85)]
        assert np.all(before > 0)


class TestNoiseBound:
    def test_measured_under_theory_bound(self):
        rows = noise_error_bound(sigmas=(0.002, 0.01), iterations=2000)
        for row in rows:
            assert row["measured_std"] <= 1.5 * row["theory_bound"]

    def test_error_scales_with_sigma(self):
        rows = noise_error_bound(sigmas=(0.002, 0.02), iterations=2000)
        assert rows[1]["measured_std"] > rows[0]["measured_std"]


class TestFairness:
    def test_mltcp_claims_more_without_starving(self):
        """§5: saturated MLTCP-Reno wins the share but Reno is not starved."""
        rows = fairness_competition_share(
            loss_probs=(0.0,), horizon=0.5, seeds=(1,)
        )
        assert rows[0]["share_ratio"] > 1.2
        assert rows[0]["reno_mbps"] > 50.0  # far from starvation

    def test_reno_follows_mathis_decay(self):
        """Quadrupling p roughly halves Reno's loss-limited throughput."""
        rows = fairness_loss_response(
            loss_probs=(0.001, 0.004), transfer_bytes=8_000_000
        )
        ratio = rows[0]["reno_mbps"] / rows[1]["reno_mbps"]
        assert 1.4 < ratio < 3.5
