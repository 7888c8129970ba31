"""Offered-load traces for periodic jobs (paper Figure 1).

Figure 1 plots each job's network demand over time: pulses of high demand
(the communication phase of each iteration) separated by near-zero demand
(the computation phase).  :func:`demand_trace` regenerates such a trace from
a :class:`~repro.workloads.job.JobSpec`.

Real collectives are not perfectly square — the paper's GPT-2 traces show a
double-hump per iteration (two all-reduce bursts for different parameter
groups).  ``PulseShape`` captures that texture without changing per-iteration
volume, so shaped traces remain calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .job import JobSpec

__all__ = ["PulseShape", "SQUARE", "DOUBLE_HUMP", "demand_trace"]


@dataclass(frozen=True)
class PulseShape:
    """Relative rate profile of one communication phase.

    ``segments`` is a sequence of ``(duration_fraction, relative_rate)``
    pairs covering the communication phase; durations must sum to 1 and the
    volume-weighted mean rate is normalized away so that every shape delivers
    exactly the job's per-iteration volume.
    """

    name: str
    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        total = sum(fraction for fraction, _rate in self.segments)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"{self.name}: segment durations must sum to 1, got {total!r}"
            )
        if any(rate < 0 for _fraction, rate in self.segments):
            raise ValueError(f"{self.name}: segment rates must be non-negative")
        if all(rate == 0 for _fraction, rate in self.segments):
            raise ValueError(f"{self.name}: at least one segment must have demand")

    def rate_at(self, phase_fraction: float) -> float:
        """Normalized rate multiplier at ``phase_fraction`` in [0, 1)."""
        mean = sum(f * r for f, r in self.segments)
        position = 0.0
        for fraction, rate in self.segments:
            position += fraction
            if phase_fraction < position:
                return rate / mean
        return self.segments[-1][1] / mean


#: Constant-rate communication phase (the §4 "continuous and constant" model).
SQUARE = PulseShape("square", ((1.0, 1.0),))

#: Two all-reduce bursts per iteration, as in the paper's GPT-2 traces.
DOUBLE_HUMP = PulseShape(
    "double-hump",
    ((0.35, 1.25), (0.2, 0.35), (0.35, 1.25), (0.1, 0.35)),
)


def demand_trace(
    job: JobSpec,
    duration: float,
    dt: float = 0.01,
    shape: PulseShape = SQUARE,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Offered load of ``job`` in isolation over ``[0, duration)``.

    Returns ``(times, demand_gbps)`` sampled every ``dt`` seconds.  The job
    repeats its ideal iteration (communication then computation) starting at
    ``job.start_offset``; compute-time jitter is drawn per iteration when the
    spec carries noise and an ``rng`` is provided.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration!r}")
    if dt <= 0 or dt > duration:
        raise ValueError(f"dt must be in (0, duration], got {dt!r}")

    samples = int(round(duration / dt))
    times = np.arange(samples) * dt
    demand = np.zeros(samples)

    comm = job.ideal_comm_time
    phase_start = job.start_offset
    while phase_start < duration:
        comm_end = phase_start + comm
        start_idx = int(np.ceil(phase_start / dt))
        end_idx = min(samples, int(np.ceil(comm_end / dt)))
        for i in range(max(0, start_idx), end_idx):
            phase_fraction = (times[i] - phase_start) / comm
            demand[i] = job.demand_gbps * shape.rate_at(min(phase_fraction, 1.0 - 1e-12))
        phase_start = comm_end + job.sample_compute_time(rng)
    return times, demand

