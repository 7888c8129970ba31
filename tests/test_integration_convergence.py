"""Integration tests: the paper's headline dynamics end to end (fluid).

These tests tie the subsystems together — workloads, allocation policies,
the fluid simulator, the centralized baseline, and the §4 theory — and
assert the paper's quantitative claims at the "shape" level.
"""

import numpy as np
import pytest

from repro.core.analysis import signed_shift
from repro.fluid.allocation import FairShare, MLTCPWeighted, PDQ, PIAS, SRPT
from repro.fluid.flowsim import run_fluid
from repro.metrics.convergence import detect_convergence
from repro.schedulers.centralized import CentralizedScheduler
from repro.workloads.job import JobSpec, gbit
from repro.workloads.presets import (
    four_job_scenario,
    gpt2_heavy_job,
    identical_jobs,
    six_job_scenario,
    two_job_scenario,
)


class TestTwoJobSliding:
    """The §4 running example: two identical alpha=1/2 jobs."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_fluid(
            two_job_scenario(),
            50.0,
            policy=MLTCPWeighted(),
            max_iterations=40,
            seed=1,
        )

    def test_converges_to_ideal(self, result):
        ideal = two_job_scenario()[0].ideal_iteration_time
        for job in ("Job1", "Job2"):
            tail = result.iteration_times(job)[-8:]
            assert tail.mean() == pytest.approx(ideal, rel=0.02)

    def test_start_time_difference_reaches_half_period(self, result):
        """After convergence the comm starts are T/2 apart (Figure 5(c))."""
        period = two_job_scenario()[0].ideal_iteration_time
        s1 = result.comm_starts("Job1")[-5:]
        s2 = result.comm_starts("Job2")[-5:]
        delta = np.abs(s1 - s2) % period
        delta = np.minimum(delta, period - delta)
        assert delta.mean() == pytest.approx(period / 2, abs=0.12)

    def test_fair_share_stays_congested(self):
        result = run_fluid(
            two_job_scenario(), 50.0, policy=FairShare(), max_iterations=40, seed=1
        )
        ideal = two_job_scenario()[0].ideal_iteration_time
        tail = result.iteration_times("Job1")[-8:]
        assert tail.mean() > 1.2 * ideal

    def test_measured_shift_has_theory_sign_and_direction(self):
        """The fluid simulator's per-iteration shifts agree with Eq. 3 in
        sign: while the phases overlap, the gap keeps growing."""
        jobs = [j.with_jitter(0.0) for j in two_job_scenario()]
        jobs = [jobs[0], jobs[1].with_offset(0.15)]  # initial delta 0.15 s
        result = run_fluid(
            jobs, 50.0, policy=MLTCPWeighted(), max_iterations=25, seed=None
        )
        period = jobs[0].ideal_iteration_time
        s1, s2 = result.comm_starts("Job1"), result.comm_starts("Job2")
        n = min(len(s1), len(s2))
        deltas = (s2[:n] - s1[:n]) % period
        comm = jobs[0].alpha * period
        for i in range(n - 1):
            if 0.02 < deltas[i] < comm * 0.9:
                theory = signed_shift(deltas[i], jobs[0].alpha, period)
                measured = deltas[i + 1] - deltas[i]
                assert measured > 0
                assert np.sign(measured) == np.sign(theory)


class TestSeedStability:
    def test_real_experiment_convergence_is_seed_stable(self):
        """The headline result holds across seeds, not just seed 1."""
        finals = []
        for seed in (1, 2, 3, 4, 5):
            result = run_fluid(
                identical_jobs(gpt2_heavy_job(), 2),
                50.0,
                policy=MLTCPWeighted(),
                max_iterations=30,
                seed=seed,
            )
            finals.append(float(result.mean_iteration_by_round()[-5:].mean()))
        assert np.mean(finals) == pytest.approx(1.8, rel=0.02)
        assert np.std(finals, ddof=1) < 0.02


class TestFourJobApproximationError:
    """§2: converge within ~20 iterations to within 5% of the optimum."""

    def test_mltcp_matches_centralized_optimum(self):
        jobs = four_job_scenario()
        scheduler = CentralizedScheduler([j.with_jitter(0.0) for j in jobs], 50.0)
        schedule = scheduler.optimize()
        optimal = scheduler.iteration_times_if_scheduled(schedule)

        result = run_fluid(
            jobs, 50.0, policy=MLTCPWeighted(), max_iterations=60, seed=5
        )
        for job in jobs:
            measured = result.iteration_times(job.name)[-10:].mean()
            assert measured == pytest.approx(optimal[job.name], rel=0.05)

    def test_convergence_within_twenty_iterations(self):
        jobs = four_job_scenario()
        result = run_fluid(
            jobs, 50.0, policy=MLTCPWeighted(), max_iterations=60, seed=5
        )
        rounds = result.mean_iteration_by_round()
        target = float(np.mean([1.2, 1.8, 1.8, 1.8]))
        report = detect_convergence(rounds, target=target, tolerance=0.05)
        assert report.converged
        assert report.converged_at <= 20
        assert report.stable

    def test_random_start_times_also_converge(self):
        """§3.1: interleaving 'regardless of job start times'."""
        rng = np.random.default_rng(9)
        jobs = [
            j.with_offset(float(rng.uniform(0, j.ideal_iteration_time)))
            for j in four_job_scenario()
        ]
        result = run_fluid(
            jobs, 50.0, policy=MLTCPWeighted(), max_iterations=60, seed=7
        )
        assert result.iteration_times("J1")[-10:].mean() == pytest.approx(1.2, rel=0.05)


class TestBaselinesOnFourJobs:
    """Figure 2(b): myopic distributed schedulers mistreat the periodic mix."""

    @pytest.mark.parametrize("policy_factory", [SRPT, PIAS])
    def test_baselines_worse_than_mltcp_early(self, policy_factory):
        jobs = four_job_scenario()
        baseline = run_fluid(
            jobs, 50.0, policy=policy_factory(), max_iterations=15, seed=5
        )
        mltcp = run_fluid(
            jobs, 50.0, policy=MLTCPWeighted(), max_iterations=40, seed=5
        )
        baseline_avg = baseline.all_iteration_times().mean()
        mltcp_tail = np.concatenate(
            [mltcp.iteration_times(j.name)[-10:] for j in jobs]
        ).mean()
        assert baseline_avg > 1.02 * mltcp_tail

    def test_pdq_with_right_fan_in_is_competitive(self):
        """Observation: PDQ's sender pausing, with fan-in matched to the
        capacity structure (2 x 25 Gbps = 50 Gbps), itself induces a form of
        interleaving on this mix — it ends within ~5% of MLTCP.  Unlike
        MLTCP it needs switch support and the right fan-in constant."""
        jobs = four_job_scenario()
        pdq = run_fluid(jobs, 50.0, policy=PDQ(max_senders=2), max_iterations=15, seed=5)
        mltcp = run_fluid(jobs, 50.0, policy=MLTCPWeighted(), max_iterations=40, seed=5)
        pdq_avg = pdq.all_iteration_times().mean()
        mltcp_tail = np.concatenate(
            [mltcp.iteration_times(j.name)[-10:] for j in jobs]
        ).mean()
        assert pdq_avg <= 1.08 * mltcp_tail

    def test_srpt_penalizes_the_large_job_most(self):
        jobs = four_job_scenario()
        result = run_fluid(jobs, 50.0, policy=SRPT(), max_iterations=12, seed=5)
        j1_slowdown = result.iteration_times("J1")[:10].mean() / 1.2
        gpt2_slowdown = result.iteration_times("J2")[:10].mean() / 1.8
        assert j1_slowdown > 1.1


class TestSixJobLifetime:
    def test_tail_speedup_matches_paper_shape(self):
        """Figure 4(c): paper reports 1.59x tail speedup; we require > 1.25x."""
        jobs = six_job_scenario()
        reno = run_fluid(jobs, 50.0, policy=FairShare(), max_iterations=400, seed=5)
        mltcp = run_fluid(jobs, 50.0, policy=MLTCPWeighted(), max_iterations=400, seed=5)
        reno_p99 = np.percentile(reno.all_iteration_times(), 99)
        mltcp_p99 = np.percentile(mltcp.all_iteration_times(), 99)
        assert reno_p99 / mltcp_p99 > 1.25

    def test_all_six_jobs_reach_ideal(self):
        jobs = six_job_scenario()
        result = run_fluid(jobs, 50.0, policy=MLTCPWeighted(), max_iterations=80, seed=5)
        for job in jobs:
            tail = result.iteration_times(job.name)[-10:].mean()
            assert tail == pytest.approx(1.8, rel=0.03)


class TestHeterogeneousMixes:
    """Beyond the paper's scenarios: MLTCP generalizes across job shapes."""

    def test_three_different_periods(self):
        jobs = [
            JobSpec("A", gbit(10.0), 25.0, 0.6),   # T = 1.0
            JobSpec("B", gbit(12.5), 25.0, 1.0),   # T = 1.5
            JobSpec("C", gbit(15.0), 25.0, 1.4),   # T = 2.0
        ]
        jobs = [j.with_jitter(0.005) for j in jobs]
        result = run_fluid(jobs, 50.0, policy=MLTCPWeighted(), max_iterations=80, seed=3)
        for job in jobs:
            tail = result.iteration_times(job.name)[-10:].mean()
            assert tail <= 1.12 * job.ideal_iteration_time

    def test_unequal_demands(self):
        jobs = [
            JobSpec("big", gbit(24.0), 40.0, 1.2, jitter_sigma=0.005),
            JobSpec("small", gbit(6.0), 15.0, 1.4, jitter_sigma=0.005),
        ]
        result = run_fluid(jobs, 50.0, policy=MLTCPWeighted(), max_iterations=60, seed=3)
        for job in jobs:
            tail = result.iteration_times(job.name)[-10:].mean()
            assert tail <= 1.1 * job.ideal_iteration_time
