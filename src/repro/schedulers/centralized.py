"""Centralized interleaving scheduler (the Cassini/Muri baseline).

Cassini computes per-job time shifts so that the communication phases of
jobs sharing a link interleave, using a geometric abstraction over a unified
period and an ILP.  This module implements the same optimization for a
single bottleneck: choose a start offset per job minimizing the integral of
over-capacity demand across the hyper-period.

The search is exact on a coarse offset grid for small job counts and refines
with multi-restart coordinate descent otherwise — for the paper's scenarios
(2–8 jobs) it reliably finds the zero-contention optima whose existence is
the paper's compatibility assumption (§4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ..workloads.job import JobSpec

__all__ = ["Schedule", "CentralizedScheduler", "unified_period"]


def unified_period(periods: Sequence[float], max_denominator: int = 1000) -> float:
    """Least common multiple of the jobs' ideal iteration times.

    Periods are rationalized (denominator-limited) first, mirroring
    Cassini's unified geometric circle whose circumference is the LCM of
    the participating jobs' iteration times.
    """
    if not periods:
        raise ValueError("need at least one period")
    if any(p <= 0 for p in periods):
        raise ValueError(f"periods must be positive, got {list(periods)}")
    fractions = [Fraction(p).limit_denominator(max_denominator) for p in periods]
    numerator = fractions[0].numerator
    denominator = fractions[0].denominator
    for f in fractions[1:]:
        numerator = math.lcm(numerator, f.numerator)
        denominator = math.gcd(denominator, f.denominator)
    return numerator / denominator


@dataclass(frozen=True)
class Schedule:
    """Result of the centralized optimization."""

    offsets: dict[str, float]
    contention: float
    hyper_period: float
    capacity_gbps: float

    @property
    def is_interleaved(self) -> bool:
        """Whether the schedule has (numerically) zero over-capacity demand."""
        return self.contention <= 1e-9

    def offset_of(self, job: str) -> float:
        """The optimized start offset of one job."""
        try:
            return self.offsets[job]
        except KeyError:
            raise KeyError(f"no offset for job {job!r}") from None


class CentralizedScheduler:
    """Offset optimizer over the hyper-period demand profile."""

    def __init__(
        self,
        jobs: Sequence[JobSpec],
        capacity_gbps: float,
        time_resolution: float = 0.005,
        offset_step: Optional[float] = None,
    ) -> None:
        if not jobs:
            raise ValueError("need at least one job")
        if not (math.isfinite(capacity_gbps) and capacity_gbps > 0):
            raise ValueError(
                f"capacity_gbps must be finite and positive, got {capacity_gbps!r}"
            )
        if time_resolution <= 0:
            raise ValueError(f"time_resolution must be positive, got {time_resolution!r}")
        self.jobs = tuple(jobs)
        self.capacity_gbps = capacity_gbps
        self.hyper_period = unified_period([j.ideal_iteration_time for j in jobs])
        self._bins = max(64, int(round(self.hyper_period / time_resolution)))
        self.time_resolution = self.hyper_period / self._bins
        if offset_step is None:
            offset_step = max(self.time_resolution, self.hyper_period / 720.0)
        self.offset_step = offset_step
        self._profiles = {job.name: self._demand_profile(job) for job in self.jobs}

    # -- public API ---------------------------------------------------------

    def contention(self, offsets: dict[str, float]) -> float:
        """Integral (Gbps * s) of demand above capacity over the hyper-period."""
        total = np.zeros(self._bins)
        for job in self.jobs:
            shift_bins = int(round(offsets.get(job.name, 0.0) / self.time_resolution))
            total += np.roll(self._profiles[job.name], shift_bins)
        excess = np.maximum(0.0, total - self.capacity_gbps)
        return float(excess.sum() * self.time_resolution)

    def optimize(
        self,
        restarts: int = 8,
        exhaustive_threshold: int = 4,
        seed: int = 0,
    ) -> Schedule:
        """Find offsets minimizing contention.

        Exhaustive grid search over all offset combinations when the job
        count is small (the first job is pinned at offset 0 — only relative
        phase matters); multi-restart coordinate descent otherwise.  Stops
        early on a zero-contention (fully interleaved) schedule.
        """
        if len(self.jobs) <= exhaustive_threshold:
            schedule = self._exhaustive()
            if schedule.is_interleaved:
                return schedule
            refined = self._coordinate_descent(dict(schedule.offsets))
            return min((schedule, refined), key=lambda s: s.contention)
        rng = np.random.default_rng(seed)
        best: Optional[Schedule] = None
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
        assert best is not None
        return best

    def iteration_times_if_scheduled(self, schedule: Schedule) -> dict[str, float]:
        """Predicted mean iteration times under the schedule.

        With zero contention every job runs at its ideal iteration time;
        residual contention stretches the communication phases of the jobs
        proportionally to their share of the over-capacity demand.  (The
        experiments verify this prediction against the fluid simulator.)
        """
        result: dict[str, float] = {}
        total = np.zeros(self._bins)
        shifted = {}
        for job in self.jobs:
            shift_bins = int(round(schedule.offset_of(job.name) / self.time_resolution))
            profile = np.roll(self._profiles[job.name], shift_bins)
            shifted[job.name] = profile
            total += profile
        over = total > self.capacity_gbps + 1e-12
        scale = np.ones(self._bins)
        scale[over] = self.capacity_gbps / total[over]
        for job in self.jobs:
            profile = shifted[job.name]
            delivered = float((profile * scale).sum() * self.time_resolution)
            offered = float(profile.sum() * self.time_resolution)
            if delivered <= 0:
                raise RuntimeError(f"job {job.name} gets no bandwidth under schedule")
            # Communication stretches by offered/delivered on average.
            stretch = offered / delivered
            result[job.name] = job.ideal_comm_time * stretch + job.compute_time
        return result

    # -- internals ------------------------------------------------------------

    def _demand_profile(self, job: JobSpec) -> np.ndarray:
        """Offset-0 demand (Gbps) of the job over the hyper-period bins."""
        profile = np.zeros(self._bins)
        period = job.ideal_iteration_time
        comm = job.ideal_comm_time
        start = 0.0
        while start < self.hyper_period - 1e-12:
            lo = int(round(start / self.time_resolution))
            hi = int(round((start + comm) / self.time_resolution))
            for b in range(lo, hi):
                profile[b % self._bins] = job.demand_gbps
            start += period
        return profile

    def _offset_candidates(self, job: JobSpec) -> np.ndarray:
        period = job.ideal_iteration_time
        count = max(1, int(round(period / self.offset_step)))
        return np.arange(count) * self.offset_step

    def _exhaustive(self) -> Schedule:
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
        return Schedule(
            offsets=best_offsets,
            contention=best_value,
            hyper_period=self.hyper_period,
            capacity_gbps=self.capacity_gbps,
        )

    def _coordinate_descent(self, start: dict[str, float]) -> Schedule:
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
        return Schedule(
            offsets=offsets,
            contention=value,
            hyper_period=self.hyper_period,
            capacity_gbps=self.capacity_gbps,
        )
