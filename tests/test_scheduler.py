"""Tests for the centralized (Cassini-like) scheduler."""

import itertools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers import centralized
from repro.schedulers.centralized import CentralizedScheduler, Schedule, unified_period
from repro.schedulers.compatibility import best_compatibility
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

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
    def test_rejects_non_finite_capacity(self, capacity):
        # NaN passes `capacity <= 0`, and with it the exhaustive offset
        # search never finds a zero-contention schedule to stop at.
        with pytest.raises(ValueError, match="capacity_gbps"):
            CentralizedScheduler([make_job("A", 1.0, 1.0, 1.0)], capacity)


class LoopScheduler(CentralizedScheduler):
    """The one-candidate-at-a-time search, kept as the block search's oracle.

    ``optimize``, ``contention``, ``_exhaustive`` and ``_coordinate_descent``
    are the loop versions: every candidate offset is one ``contention()``
    call that rolls and sums every job's profile.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._profiles = {job.name: self._demand_profile(job) for job in self.jobs}

    def total_demand(self, offsets):
        total = np.zeros(self._bins)
        for job in self.jobs:
            shift_bins = int(round(offsets.get(job.name, 0.0) / self.time_resolution))
            total += np.roll(self._profiles[job.name], shift_bins)
        return total

    def contention(self, offsets):
        total = self.total_demand(offsets)
        excess = np.maximum(0.0, total - self.capacity_gbps)
        return float(excess.sum() * self.time_resolution)

    def optimize(self, restarts=8, exhaustive_threshold=4, seed=0):
        if len(self.jobs) <= exhaustive_threshold:
            schedule = self._exhaustive()
            if schedule.is_interleaved:
                return schedule
            refined = self._coordinate_descent(dict(schedule.offsets))
            return min((schedule, refined), key=lambda s: s.contention)
        rng = np.random.default_rng(seed)
        best = None
        for restart in range(max(1, restarts)):
            if restart == 0:
                start = {job.name: 0.0 for job in self.jobs}
            else:
                start = {
                    job.name: float(
                        rng.integers(0, self._offset_candidates(job).size)
                    )
                    * self.offset_step
                    % job.ideal_iteration_time
                    for job in self.jobs
                }
            candidate = self._coordinate_descent(start)
            if best is None or candidate.contention < best.contention:
                best = candidate
            if best.is_interleaved:
                break
        return best

    def _exhaustive(self):
        names = [job.name for job in self.jobs]
        candidate_lists = [np.array([0.0])] + [
            self._offset_candidates(job) for job in self.jobs[1:]
        ]
        best_offsets = {name: 0.0 for name in names}
        best_value = self.contention(best_offsets)
        for combo in itertools.product(*candidate_lists):
            offsets = dict(zip(names, (float(c) for c in combo)))
            value = self.contention(offsets)
            if value < best_value - 1e-12:
                best_value = value
                best_offsets = offsets
                if best_value <= 1e-9:
                    break
        return Schedule(best_offsets, best_value, self.hyper_period, self.capacity_gbps)

    def _coordinate_descent(self, start):
        offsets = dict(start)
        value = self.contention(offsets)
        improved = True
        sweep_guard = 0
        while improved and sweep_guard < 50:
            improved = False
            sweep_guard += 1
            for job in self.jobs:
                best_offset = offsets[job.name]
                best_value = value
                for candidate in self._offset_candidates(job):
                    offsets[job.name] = float(candidate)
                    candidate_value = self.contention(offsets)
                    if candidate_value < best_value - 1e-12:
                        best_value = candidate_value
                        best_offset = float(candidate)
                offsets[job.name] = best_offset
                if best_value < value - 1e-12:
                    value = best_value
                    improved = True
            if value <= 1e-9:
                break
        return Schedule(offsets, value, self.hyper_period, self.capacity_gbps)


def _hexed(schedule):
    return (
        {name: offset.hex() for name, offset in schedule.offsets.items()},
        schedule.contention.hex(),
    )


@st.composite
def _job_mixes(draw):
    """2-5 jobs on short hyper-periods, some of them unable to interleave."""
    count = draw(st.integers(2, 5))
    jobs = []
    for i in range(count):
        period = draw(st.sampled_from([0.2, 0.3, 0.4, 0.6]))
        duty = draw(st.sampled_from([0.1, 0.25, 0.4, 0.5, 0.7]))
        # Inexact demands: their float sums depend on the order of the adds.
        demand = draw(st.sampled_from([12.3, 17.1, 25.0, 33.3, 41.7]))
        comm = period * duty
        jobs.append(
            JobSpec(
                name=f"J{i}",
                comm_bits=gbit(demand * comm),
                demand_gbps=demand,
                compute_time=period - comm,
            )
        )
    return jobs


class TestBlockSearchMatchesLoop:
    """The block-scored search returns the loop search's schedule, by hex."""

    def test_fig2(self):
        jobs = [j.with_jitter(0.0) for j in four_job_scenario()]
        block = CentralizedScheduler(jobs, 50.0).optimize()
        assert block.is_interleaved
        assert _hexed(block) == _hexed(LoopScheduler(jobs, 50.0).optimize())

    @pytest.mark.parametrize(
        "jobs",
        [
            [j.with_jitter(0.0) for j in six_job_scenario()],
            [make_job(name, 10.0, 50.0, 0.2) for name in "ABC"],
        ],
        ids=["six-job descent", "overloaded exhaustive then descent"],
    )
    def test_best_compatibility(self, jobs):
        score, schedule = best_compatibility(jobs, 50.0)
        loop = LoopScheduler(jobs, 50.0)
        expected = loop.optimize()
        assert _hexed(schedule) == _hexed(expected)
        fits = loop.total_demand(expected.offsets) <= 50.0 + 1e-9
        assert score == float(fits.mean())

    @settings(max_examples=50, deadline=None)
    @given(
        jobs=_job_mixes(),
        capacity=st.sampled_from([30.0, 50.0, 60.0]),
        exhaustive_threshold=st.integers(1, 4),
        restarts=st.integers(1, 3),
        seed=st.integers(0, 3),
    )
    def test_generated_mixes(self, jobs, capacity, exhaustive_threshold, restarts, seed):
        kwargs = dict(
            restarts=restarts, exhaustive_threshold=exhaustive_threshold, seed=seed
        )
        # Coarse bins keep the loop oracle fast enough for 50 examples.
        with patch.object(centralized, "TIME_RESOLUTION_S", 0.02):
            block = CentralizedScheduler(jobs, capacity)
            loop = LoopScheduler(jobs, capacity)
        assert _hexed(block.optimize(**kwargs)) == _hexed(loop.optimize(**kwargs))

    def test_scores_equal_contention_across_chunks(self, monkeypatch):
        """Rows split over several chunks, for a job with jobs on both sides,
        still equal ``contention`` bit for bit."""
        monkeypatch.setattr(centralized, "_CHUNK_ELEMENTS", 3 * 64)
        # 12.3 + 12.3 + 25.0 rounds differently when the 25.0 is added first.
        jobs = [
            make_job("A", 2.46, 12.3, 0.2),
            make_job("B", 2.46, 12.3, 0.2),
            make_job("C", 5.0, 25.0, 0.2),
        ]
        scheduler = CentralizedScheduler(jobs, 40.0)
        loop = LoopScheduler(jobs, 40.0)
        offsets = {"A": 0.0, "C": 0.13}
        scored = list(scheduler._scores(offsets, 1, scheduler._grids[1]))
        assert len(scored) == len(scheduler._grids[1][0]) > 3
        assert any(value > 0 for _, value in scored)
        for offset, value in scored:
            assert value.hex() == loop.contention({**offsets, "B": offset}).hex()
