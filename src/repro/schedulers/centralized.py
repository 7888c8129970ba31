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

Both searches score every candidate offset of one job as one block, which
is Cassini's view of contention as a function of one job's rotation on the
hyper-period circle: the job's rolled profiles form a C-contiguous
(candidates x bins) array, the other jobs' profiles are added to it in job
order, and one row-wise excess sum gives every candidate's contention.  The
float operations are the ones :meth:`CentralizedScheduler.contention` does
for a single offset assignment, in the same order, so each row equals that
call bit for bit and the scan over rows keeps the one-candidate-at-a-time
tie-breaking.  Blocks are built :data:`_CHUNK_ELEMENTS` at a time, which
bounds their memory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..workloads.job import JobSpec

__all__ = ["Schedule", "CentralizedScheduler", "unified_period"]

#: Elements per scored block: 65,536 float64s (512 KiB) keep a block's
#: temporaries out of the process's peak memory.
_CHUNK_ELEMENTS = 65_536

#: Target width of one demand-profile bin, seconds; the hyper-period is
#: split into a whole number of bins, and never fewer than 64.
TIME_RESOLUTION_S = 0.005

#: Largest denominator a period keeps when :func:`unified_period`
#: rationalizes it.
MAX_DENOMINATOR = 1000

#: A job's candidate offsets and, for each, the row of the job's window
#: table (:attr:`CentralizedScheduler._windows`) holding its rolled profile.
_Grid = tuple[list[float], np.ndarray]


def unified_period(periods: Sequence[float]) -> float:
    """Least common multiple of the jobs' ideal iteration times.

    Periods are rationalized (denominator-limited) first, mirroring
    Cassini's unified geometric circle whose circumference is the LCM of
    the participating jobs' iteration times.
    """
    if not periods:
        raise ValueError("need at least one period")
    if any(p <= 0 for p in periods):
        raise ValueError(f"periods must be positive, got {list(periods)}")
    fractions = [Fraction(p).limit_denominator(MAX_DENOMINATOR) for p in periods]
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
    """Offset optimizer over the hyper-period demand profile.

    The profile has bins of about :data:`TIME_RESOLUTION_S`
    (:attr:`time_resolution` is the exact width), and each job's candidate
    offsets are :attr:`offset_step` apart: one bin, or 1/720 of the
    hyper-period when that is wider.
    """

    def __init__(self, jobs: Sequence[JobSpec], capacity_gbps: float) -> None:
        if not jobs:
            raise ValueError("need at least one job")
        if not (math.isfinite(capacity_gbps) and capacity_gbps > 0):
            raise ValueError(
                f"capacity_gbps must be finite and positive, got {capacity_gbps!r}"
            )
        self.jobs = tuple(jobs)
        self.capacity_gbps = capacity_gbps
        self.hyper_period = unified_period([j.ideal_iteration_time for j in jobs])
        self._bins = max(64, int(round(self.hyper_period / TIME_RESOLUTION_S)))
        self.time_resolution = self.hyper_period / self._bins
        self.offset_step = max(self.time_resolution, self.hyper_period / 720.0)
        # Row r of a job's table is its offset-0 profile rolled by -r bins: a
        # view into the profile written twice, so no roll copies anything.
        self._windows = {
            job.name: sliding_window_view(
                np.tile(self._demand_profile(job), 2), self._bins
            )
            for job in self.jobs
        }

    # -- public API ---------------------------------------------------------

    def contention(self, offsets: dict[str, float]) -> float:
        """Integral (Gbps * s) of demand above capacity over the hyper-period."""
        return float(self._excess(self.total_demand(offsets)))

    def total_demand(self, offsets: dict[str, float]) -> np.ndarray:
        """Summed demand (Gbps) per hyper-period bin, each job at its offset.

        A job missing from ``offsets`` sits at offset 0.
        """
        return self._accumulate(np.zeros(self._bins), offsets, self.jobs)

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
        shifted = {
            job.name: self._rolled(job, schedule.offset_of(job.name))
            for job in self.jobs
        }
        total = self.total_demand(schedule.offsets)
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

    def _row(self, offset: float) -> int:
        """Window-table row holding a profile rolled to ``offset``."""
        return -int(round(offset / self.time_resolution)) % self._bins

    def _rolled(self, job: JobSpec, offset: float) -> np.ndarray:
        """``np.roll`` of the job's offset-0 profile to ``offset`` (a view)."""
        return self._windows[job.name][self._row(offset)]

    def _accumulate(
        self, total: np.ndarray, offsets: dict[str, float], jobs: Sequence[JobSpec]
    ) -> np.ndarray:
        """Add each job's rolled profile into ``total``, one job at a time in
        ``jobs`` order (the float order every score depends on)."""
        for job in jobs:
            total += self._rolled(job, offsets.get(job.name, 0.0))
        return total

    def _excess(self, total: np.ndarray) -> np.ndarray:
        """Over-capacity integral (Gbps * s) along the last axis of ``total``,
        which it overwrites."""
        total -= self.capacity_gbps
        np.maximum(0.0, total, out=total)
        return total.sum(axis=-1) * self.time_resolution

    def _grid(self, candidates: list[float]) -> _Grid:
        return candidates, np.array([self._row(c) for c in candidates], dtype=np.intp)

    @cached_property
    def _grids(self) -> list[_Grid]:
        """Each job's search grid, built on the first search."""
        return [self._grid(self._offset_candidates(job).tolist()) for job in self.jobs]

    def _scores(
        self, offsets: dict[str, float], index: int, grid: _Grid
    ) -> Iterator[tuple[float, float]]:
        """``(offset, contention)`` for each candidate offset in ``grid`` of
        job ``index``, in grid order, with every other job at ``offsets``.

        Each row of a block is that job's rolled profile; the jobs before it
        are summed first from zeros and the jobs after it are added one at a
        time, as :meth:`contention` adds them, so each value equals
        ``contention`` of the same assignment bit for bit.
        """
        jobs = self.jobs
        candidates, rows = grid
        windows = self._windows[jobs[index].name]
        before = self._accumulate(np.zeros(self._bins), offsets, jobs[:index])
        step = max(1, _CHUNK_ELEMENTS // self._bins)
        for lo in range(0, len(candidates), step):
            block = windows[rows[lo:lo + step]]
            block += before
            self._accumulate(block, offsets, jobs[index + 1:])
            yield from zip(candidates[lo:lo + step], self._excess(block).tolist())

    def _exhaustive(self) -> Schedule:
        names = [job.name for job in self.jobs]
        last = len(names) - 1
        # The first job is pinned at offset 0; the last is the innermost
        # axis of the product, scored a block at a time.
        grids = [self._grid([0.0]), *self._grids[1:]]
        best_offsets = {name: 0.0 for name in names}
        best_value = self.contention(best_offsets)
        for outer in itertools.product(*(candidates for candidates, _ in grids[:-1])):
            offsets = dict(zip(names, outer))
            for candidate, value in self._scores(offsets, last, grids[-1]):
                if value < best_value - 1e-12:
                    best_value = value
                    best_offsets = {**offsets, names[last]: candidate}
                    if best_value <= 1e-9:
                        return self._schedule(best_offsets, best_value)
        return self._schedule(best_offsets, best_value)

    def _coordinate_descent(self, start: dict[str, float]) -> Schedule:
        offsets = dict(start)
        value = self.contention(offsets)
        improved = True
        sweep_guard = 0
        while improved and sweep_guard < 50:
            improved = False
            sweep_guard += 1
            for index, job in enumerate(self.jobs):
                best_offset = offsets[job.name]
                best_value = value
                for candidate, candidate_value in self._scores(
                    offsets, index, self._grids[index]
                ):
                    if candidate_value < best_value - 1e-12:
                        best_value = candidate_value
                        best_offset = candidate
                offsets[job.name] = best_offset
                if best_value < value - 1e-12:
                    value = best_value
                    improved = True
            if value <= 1e-9:
                break
        return self._schedule(offsets, value)

    def _schedule(self, offsets: dict[str, float], contention: float) -> Schedule:
        return Schedule(
            offsets=offsets,
            contention=contention,
            hyper_period=self.hyper_period,
            capacity_gbps=self.capacity_gbps,
        )
