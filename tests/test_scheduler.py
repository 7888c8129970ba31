"""Tests for the centralized (Cassini-like) scheduler."""

import pytest

from repro.schedulers.centralized import CentralizedScheduler, unified_period
from repro.workloads.job import JobSpec, gbit
from repro.workloads.presets import (
    four_job_scenario,
    six_job_scenario,
    three_job_scenario,
)


def make_job(name, comm_gbit, demand, compute, offset=0.0):
    return JobSpec(
        name=name,
        comm_bits=gbit(comm_gbit),
        demand_gbps=demand,
        compute_time=compute,
        start_offset=offset,
    )


class TestUnifiedPeriod:
    def test_paper_periods(self):
        """Cassini's unified circle for 1.2 s and 1.8 s jobs is 3.6 s."""
        assert unified_period([1.2, 1.8]) == pytest.approx(3.6)

    def test_identical_periods(self):
        assert unified_period([1.8, 1.8, 1.8]) == pytest.approx(1.8)

    def test_single_period(self):
        assert unified_period([0.7]) == pytest.approx(0.7)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            unified_period([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            unified_period([1.0, -1.0])


class TestContention:
    def test_zero_when_underloaded(self):
        jobs = [make_job("A", 5.0, 10.0, 1.0)]
        scheduler = CentralizedScheduler(jobs, 50.0)
        assert scheduler.contention({"A": 0.0}) == 0.0

    def test_positive_when_overlapping_overloads(self):
        # Two 40 Gbps comm phases overlap on a 50 Gbps link: 30 Gbps excess.
        jobs = [make_job("A", 40.0, 40.0, 1.0), make_job("B", 40.0, 40.0, 1.0)]
        scheduler = CentralizedScheduler(jobs, 50.0)
        value = scheduler.contention({"A": 0.0, "B": 0.0})
        assert value == pytest.approx(30.0 * 1.0, rel=0.05)

    def test_offset_removes_contention(self):
        jobs = [make_job("A", 40.0, 40.0, 1.0), make_job("B", 40.0, 40.0, 1.0)]
        scheduler = CentralizedScheduler(jobs, 50.0)
        assert scheduler.contention({"A": 0.0, "B": 1.0}) == pytest.approx(0.0)


class TestOptimize:
    def test_two_identical_jobs_interleave(self):
        jobs = [make_job("A", 40.0, 40.0, 1.0), make_job("B", 40.0, 40.0, 1.0)]
        schedule = CentralizedScheduler(jobs, 50.0).optimize()
        assert schedule.is_interleaved

    @pytest.mark.parametrize(
        "scenario", [four_job_scenario, three_job_scenario, six_job_scenario]
    )
    def test_paper_scenarios_are_compatible(self, scenario):
        """The paper's compatibility assumption: every evaluation scenario
        admits a zero-contention interleave."""
        jobs = [j.with_jitter(0.0) for j in scenario()]
        schedule = CentralizedScheduler(jobs, 50.0).optimize()
        assert schedule.is_interleaved

    def test_four_job_optimal_times_match_paper(self):
        """Figure 2(a): J1 averages 1.2 s, J2-J4 average 1.8 s."""
        jobs = [j.with_jitter(0.0) for j in four_job_scenario()]
        scheduler = CentralizedScheduler(jobs, 50.0)
        schedule = scheduler.optimize()
        times = scheduler.iteration_times_if_scheduled(schedule)
        assert times["J1"] == pytest.approx(1.2, rel=0.02)
        for name in ("J2", "J3", "J4"):
            assert times[name] == pytest.approx(1.8, rel=0.02)

    def test_infeasible_mix_reports_residual(self):
        """Overloaded link: contention cannot reach zero."""
        jobs = [
            make_job("A", 50.0, 50.0, 0.0),
            make_job("B", 50.0, 50.0, 0.0),
        ]
        schedule = CentralizedScheduler(jobs, 50.0).optimize()
        assert not schedule.is_interleaved
        assert schedule.contention > 0

    def test_contended_schedule_predicts_stretch(self):
        jobs = [make_job("A", 50.0, 50.0, 0.0), make_job("B", 50.0, 50.0, 0.0)]
        scheduler = CentralizedScheduler(jobs, 50.0)
        schedule = scheduler.optimize()
        times = scheduler.iteration_times_if_scheduled(schedule)
        # Each job alone needs the full link continuously; sharing doubles it.
        assert times["A"] > jobs[0].ideal_iteration_time * 1.5

    def test_restart_descent_path(self):
        """More than exhaustive_threshold jobs exercises coordinate descent."""
        jobs = [j.with_jitter(0.0) for j in six_job_scenario()]
        schedule = CentralizedScheduler(jobs, 50.0).optimize(
            exhaustive_threshold=2, restarts=3
        )
        assert schedule.is_interleaved


class TestSchedule:
    def test_offset_lookup(self):
        jobs = [make_job("A", 10.0, 25.0, 1.0)]
        schedule = CentralizedScheduler(jobs, 50.0).optimize()
        assert schedule.offset_of("A") == 0.0
        with pytest.raises(KeyError, match="ghost"):
            schedule.offset_of("ghost")

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            CentralizedScheduler([], 50.0)
        with pytest.raises(ValueError, match="capacity"):
            CentralizedScheduler([make_job("A", 1.0, 1.0, 1.0)], 0.0)
        with pytest.raises(ValueError, match="time_resolution"):
            CentralizedScheduler(
                [make_job("A", 1.0, 1.0, 1.0)], 50.0, time_resolution=0.0
            )

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
    def test_rejects_non_finite_capacity(self, capacity):
        # NaN passes `capacity <= 0`, and with it the exhaustive offset
        # search never finds a zero-contention schedule to stop at.
        with pytest.raises(ValueError, match="capacity_gbps"):
            CentralizedScheduler([make_job("A", 1.0, 1.0, 1.0)], capacity)
