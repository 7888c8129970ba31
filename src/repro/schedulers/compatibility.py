"""Cassini-style compatibility scoring for job mixes.

Cassini's placement decisions rest on a *compatibility* notion: a set of
jobs sharing a link is compatible if time shifts exist under which their
total demand never exceeds capacity.  MLTCP's §4 guarantee is conditioned on
exactly that ("we limit the scope of our analysis to scenarios in which an
interleaved schedule exists").  These helpers quantify it:

* :func:`compatibility_score` — for given offsets, the fraction of the
  hyper-period during which total demand fits the link (1.0 = interleaved).
* :func:`best_compatibility` — the score under optimized offsets.
* :func:`are_compatible` — whether a zero-contention interleave exists,
  i.e. whether the paper's convergence guarantee applies to the mix.
"""

from __future__ import annotations

from typing import Sequence

from ..workloads.job import JobSpec
from .centralized import CentralizedScheduler, Schedule

__all__ = ["compatibility_score", "best_compatibility", "are_compatible"]


def compatibility_score(
    jobs: Sequence[JobSpec],
    capacity_gbps: float,
    offsets: dict[str, float] | None = None,
) -> float:
    """Fraction of the hyper-period with total demand <= capacity.

    ``offsets`` default to each job's own ``start_offset``.
    """
    scheduler = CentralizedScheduler(jobs, capacity_gbps)
    if offsets is None:
        offsets = {job.name: job.start_offset for job in jobs}
    return _fit_fraction(scheduler, offsets)


def best_compatibility(
    jobs: Sequence[JobSpec], capacity_gbps: float
) -> tuple[float, Schedule]:
    """Maximum compatibility score over offsets, with the achieving schedule."""
    scheduler = CentralizedScheduler(jobs, capacity_gbps)
    schedule = scheduler.optimize()
    return _fit_fraction(scheduler, schedule.offsets), schedule


def _fit_fraction(scheduler: CentralizedScheduler, offsets: dict[str, float]) -> float:
    fits = scheduler.total_demand(offsets) <= scheduler.capacity_gbps + 1e-9
    return float(fits.mean())


def are_compatible(jobs: Sequence[JobSpec], capacity_gbps: float) -> bool:
    """Whether a zero-contention interleave exists (the §4 precondition)."""
    score, _schedule = best_compatibility(jobs, capacity_gbps)
    return score >= 1.0 - 1e-9
