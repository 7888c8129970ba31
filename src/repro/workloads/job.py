"""Periodic DNN training/fine-tuning job models.

The paper abstracts a distributed training job as a strictly periodic
two-phase loop: a *communication* phase (the collective all-reduce of one
iteration, ``total_bytes`` at up to ``demand_gbps``) followed by a
*computation* phase (``compute_time`` seconds of forward/backward work), with
the next iteration's flows starting only when the previous iteration
finishes.  :class:`JobSpec` captures that abstraction; the fluid and packet
simulators both consume it, and both record what it produced as
:class:`IterationResult` entries queried through one :class:`_IterationLog`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

__all__ = ["JobSpec", "GBPS", "gbit", "IterationResult", "mean_by_round"]

#: Bits per second in one Gbps (decimal, as link rates are quoted).
GBPS = 1e9


def gbit(value: float) -> float:
    """Convert gigabits to bits (readability helper for job volumes)."""
    return value * 1e9


@dataclass(frozen=True)
class JobSpec:
    """Static description of one periodic training job.

    Parameters
    ----------
    name:
        Identifier used in reports ("J1", "GPT-2#3", ...).
    comm_bits:
        Bits transferred per training iteration (``TOTAL_BYTES * 8``).
    demand_gbps:
        Peak rate the job's flows can drive, in Gbps (bounded by its NIC /
        number of flows).  During the communication phase the job wants
        ``min(demand, allocated share)`` of the bottleneck.
    compute_time:
        Seconds of computation between communication phases.
    start_offset:
        When the job's first iteration begins, in seconds.
    jitter_sigma:
        Std of zero-mean Gaussian noise added to each computation phase
        (paper §4's noise model).  Zero disables noise.
    iteration_limit:
        Number of iterations after which the job departs (training
        finishes).  ``None`` means the job runs for the whole simulation —
        used by churn experiments where jobs join and leave.
    volume_jitter_fraction:
        Relative std of zero-mean Gaussian noise on each iteration's
        communication volume.  The paper's §4 analysis assumes the volume
        is constant; this knob probes robustness to that assumption
        (real collectives vary slightly between iterations).
    """

    name: str
    comm_bits: float
    demand_gbps: float
    compute_time: float
    start_offset: float = 0.0
    jitter_sigma: float = 0.0
    iteration_limit: Optional[int] = None
    volume_jitter_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        # Finiteness first: every ordered check below is silently False for
        # NaN (``nan < 0`` is False), so a NaN offset used to slip straight
        # into the simulators and poison event times.  Reject eagerly, with
        # the offending field named (the repro.faults.schedule convention).
        for field_name in (
            "comm_bits", "demand_gbps", "compute_time", "start_offset",
            "jitter_sigma", "volume_jitter_fraction",
        ):
            value = getattr(self, field_name)
            try:
                finite = math.isfinite(value)
            except TypeError:  # not a number at all
                finite = False
            if not finite:
                raise ValueError(
                    f"{self.name}: {field_name} must be finite, got {value!r}"
                )
        if self.comm_bits <= 0:
            raise ValueError(f"{self.name}: comm_bits must be positive, got {self.comm_bits!r}")
        if self.demand_gbps <= 0:
            raise ValueError(
                f"{self.name}: demand_gbps must be positive, got {self.demand_gbps!r}"
            )
        if self.compute_time < 0:
            raise ValueError(
                f"{self.name}: compute_time must be non-negative, got {self.compute_time!r}"
            )
        if self.start_offset < 0:
            raise ValueError(
                f"{self.name}: start_offset must be non-negative, got {self.start_offset!r}"
            )
        if self.jitter_sigma < 0:
            raise ValueError(
                f"{self.name}: jitter_sigma must be non-negative, got {self.jitter_sigma!r}"
            )
        if self.iteration_limit is not None and not (
            isinstance(self.iteration_limit, numbers.Integral)
            and self.iteration_limit >= 1
        ):
            raise ValueError(
                f"{self.name}: iteration_limit must be a positive integer, got "
                f"{self.iteration_limit!r}"
            )
        if not 0.0 <= self.volume_jitter_fraction < 1.0:
            raise ValueError(
                f"{self.name}: volume_jitter_fraction must be in [0, 1), got "
                f"{self.volume_jitter_fraction!r}"
            )

    @property
    def comm_bytes(self) -> int:
        """TOTAL_BYTES for Algorithm 1."""
        return int(round(self.comm_bits / 8.0))

    @property
    def demand_bps(self) -> float:
        """Peak demand in bits per second."""
        return self.demand_gbps * GBPS

    @property
    def ideal_comm_time(self) -> float:
        """Communication-phase duration when the job runs in isolation."""
        return self.comm_bits / self.demand_bps

    @property
    def ideal_iteration_time(self) -> float:
        """Isolation iteration time ``T`` (paper Figure 5(a))."""
        return self.ideal_comm_time + self.compute_time

    @property
    def alpha(self) -> float:
        """Communication fraction ``alpha = comm / T`` of the ideal iteration."""
        return self.ideal_comm_time / self.ideal_iteration_time

    @property
    def mean_load_bps(self) -> float:
        """Long-run average offered load in isolation, in bits per second."""
        return self.comm_bits / self.ideal_iteration_time

    def with_offset(self, start_offset: float) -> "JobSpec":
        """Copy of this spec starting at a different time."""
        return replace(self, start_offset=start_offset)

    def with_jitter(self, jitter_sigma: float) -> "JobSpec":
        """Copy of this spec with a different compute-time noise level."""
        return replace(self, jitter_sigma=jitter_sigma)

    def with_name(self, name: str) -> "JobSpec":
        """Copy of this spec under a different name."""
        return replace(self, name=name)

    def with_iteration_limit(self, iteration_limit: Optional[int]) -> "JobSpec":
        """Copy of this spec departing after ``iteration_limit`` iterations."""
        return replace(self, iteration_limit=iteration_limit)

    def scaled(self, factor: float) -> "JobSpec":
        """Copy with bytes, demand and compute time all scaled by ``factor``.

        Scaling everything together preserves ``alpha`` and every ratio that
        MLTCP's dynamics depend on — this is how paper-scale (50 Gbps)
        scenarios are mapped onto the packet-level simulator's smaller,
        tractable units.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor!r}")
        return replace(
            self,
            comm_bits=self.comm_bits * factor,
            demand_gbps=self.demand_gbps,  # rate unchanged; time stretches
            compute_time=self.compute_time * factor,
            start_offset=self.start_offset * factor,
            jitter_sigma=self.jitter_sigma * factor,
        )

    def sample_compute_time(self, rng: Optional[np.random.Generator]) -> float:
        """One computation-phase duration, with the §4 Gaussian noise model."""
        if self.jitter_sigma == 0.0 or rng is None:
            return self.compute_time
        noisy = rng.normal(self.compute_time, self.jitter_sigma)
        # Computation can't take negative time no matter how unlucky the draw.
        return max(0.0, noisy)

    def sample_comm_bits(self, rng: Optional[np.random.Generator]) -> float:
        """One iteration's communication volume, with relative jitter."""
        if self.volume_jitter_fraction == 0.0 or rng is None:
            return float(self.comm_bits)
        noisy = rng.normal(1.0, self.volume_jitter_fraction) * self.comm_bits
        # At least one MTU's worth of traffic per iteration.
        return max(12000.0, noisy)


@dataclass(frozen=True)
class IterationResult:
    """One completed training iteration of one job, on either substrate."""

    job: str
    index: int
    comm_start: float
    comm_end: float
    iteration_end: float

    @property
    def comm_duration(self) -> float:
        """Wall-clock length of the communication phase."""
        return self.comm_end - self.comm_start

    @property
    def duration(self) -> float:
        """Iteration time: start of this comm phase to start of the next."""
        return self.iteration_end - self.comm_start


def mean_by_round(
    per_job: Sequence[np.ndarray], max_rounds: Optional[int] = None
) -> np.ndarray:
    """Mean of the i-th value across ``per_job``, for every round all reached.

    With iteration durations per job this is the per-round mean iteration
    time that Figures 3, 4 and 6 plot.
    """
    rounds = min((len(t) for t in per_job), default=0)
    if max_rounds is not None:
        rounds = min(rounds, max_rounds)
    if rounds == 0:
        return np.array([])
    # One 2-D reduction instead of a per-round Python comprehension.
    # Transposing to C-contiguous (rounds, jobs) makes each row mean the
    # same 1-D pairwise summation numpy applies to one round's list, so the
    # series is bit-identical to a per-round ``np.mean``.
    stacked = np.ascontiguousarray(np.stack([t[:rounds] for t in per_job]).T)
    return stacked.mean(axis=1)


class _IterationLog:
    """Per-job views of a run's iterations, shared by every run result.

    A result provides ``jobs`` (in the order the run was given them) and
    ``iterations``; the fluid results and the packet lab result all do.
    """

    jobs: tuple[JobSpec, ...]
    iterations: list[IterationResult]
    #: Fault transitions actually applied, as ``"t=<s>s: <what>"`` lines.
    fault_log: list[str]
    #: MLTCP tracker-sanity fallbacks (``{"flow", "reason", "start",
    #: "end"}``); only the packet substrate has a per-flow tracker.
    degradation_episodes: Sequence[dict] = ()

    def iterations_of(self, job: str) -> list[IterationResult]:
        """Completed iterations of one job, in order."""
        return [it for it in self.iterations if it.job == job]

    def iteration_times(self, job: str) -> np.ndarray:
        """Durations (s) of the job's completed iterations."""
        return np.array([it.duration for it in self.iterations_of(job)])

    def mean_iteration_by_round(
        self,
        jobs: Optional[Sequence[str]] = None,
        max_rounds: Optional[int] = None,
    ) -> np.ndarray:
        """Average duration of the i-th iteration across ``jobs`` (default:
        every job of the run) — the Figure 3 series."""
        names = [job.name for job in self.jobs] if jobs is None else jobs
        return mean_by_round([self.iteration_times(n) for n in names], max_rounds)


def total_mean_load_gbps(jobs: list[JobSpec]) -> float:
    """Aggregate long-run average load of a job mix, in Gbps."""
    return sum(job.mean_load_bps for job in jobs) / GBPS


def feasible_on_link(jobs: list[JobSpec], capacity_gbps: float) -> bool:
    """Necessary condition for a zero-contention interleave to exist.

    The average offered load must not exceed capacity.  (Sufficiency also
    needs a tiling of the comm phases; the centralized scheduler checks that
    constructively.)
    """
    if capacity_gbps <= 0:
        raise ValueError(f"capacity_gbps must be positive, got {capacity_gbps!r}")
    if not jobs:
        return True
    load = total_mean_load_gbps(jobs)
    return load <= capacity_gbps * (1.0 + 1e-9) and not math.isnan(load)
