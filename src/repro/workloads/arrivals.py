"""Open-loop job arrival models for the scheduling service.

CASSINI and Metronome (PAPERS.md) frame ML-cluster scheduling as a
*service* answering a continuous arrival stream of periodic training
jobs.  This module generates that stream for the churn daemon
(:mod:`repro.service`): a non-homogeneous Poisson process of job
arrivals with

* a base arrival rate (jobs per second of simulated time),
* optional *diurnal modulation* — the rate swings sinusoidally around
  the base, the fluid-time analogue of day/night load,
* optional *flash crowds* — bursts of short fine-tune jobs landing at
  one instant (a popular base model just dropped), and
* per-job lifetimes in iterations (geometric, so departures are an
  open-loop Poisson-like process too).

The stream is generated **up front** from one seed by thinning: the
whole sequence of arrival times, template choices and lifetimes is a
pure function of ``(model, templates, seed)``, independent of anything
the daemon later does with it.  That is what makes crash recovery
bit-identical — a resumed daemon re-reads the same events by index
instead of re-drawing them (docs/SERVICE.md).

Validation is eager, in the :mod:`repro.faults.schedule` style: a
negative, NaN or otherwise unusable field raises ``ValueError`` naming
the offending value at construction time, never downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .job import JobSpec

__all__ = ["FlashCrowd", "ArrivalModel", "ArrivalStream", "ArrivalEvent"]


def _check(condition: bool, what: str, message: str) -> None:
    """Eager validation helper (mirrors ``repro.faults.schedule._check``)."""
    if not condition:
        raise ValueError(f"{what}: {message}")


@dataclass(frozen=True)
class FlashCrowd:
    """A burst of ``size`` short fine-tune jobs arriving at ``time``.

    Fine-tunes are modelled as regular template jobs with a small, fixed
    ``iterations`` lifetime — they join, train briefly, and depart,
    which is exactly the churn shape that stresses admission control.
    """

    time: float
    size: int
    iterations: int = 3

    def __post_init__(self) -> None:
        _check(
            math.isfinite(self.time) and self.time >= 0.0,
            f"flash crowd at t={self.time!r}",
            f"time must be finite and non-negative, got {self.time!r}",
        )
        _check(
            self.size >= 1,
            f"flash crowd at t={self.time:g}",
            f"size must be positive, got {self.size!r}",
        )
        _check(
            self.iterations >= 1,
            f"flash crowd at t={self.time:g}",
            f"iterations must be positive, got {self.iterations!r}",
        )


@dataclass(frozen=True)
class ArrivalEvent:
    """One job offered to the service: the spec's ``start_offset`` is the
    absolute arrival time (seconds of simulated time)."""

    index: int
    time: float
    spec: JobSpec
    flash: bool = False

    def __post_init__(self) -> None:
        _check(
            math.isfinite(self.time) and self.time >= 0.0,
            f"arrival #{self.index} ({self.spec.name!r})",
            f"arrival time must be finite and non-negative, got {self.time!r}",
        )


@dataclass(frozen=True)
class ArrivalModel:
    """Open-loop arrival process parameters.

    Parameters
    ----------
    rate_per_s:
        Base mean arrival rate, jobs per second of simulated time.
    horizon_s:
        Arrivals are generated in ``[0, horizon_s)``.
    mean_iterations:
        Mean job lifetime in iterations; each job draws a geometric
        lifetime with this mean (minimum 1), so departures form an
        open-loop process too.
    diurnal_amplitude:
        Relative swing of the rate: ``rate(t) = rate_per_s * (1 +
        amplitude * sin(2 pi t / period))``.  Zero disables modulation;
        must stay below 1 so the rate never goes negative.
    diurnal_period_s:
        Period of the modulation, seconds of simulated time.
    flash_crowds:
        Bursts of short fine-tune jobs (see :class:`FlashCrowd`).
    """

    rate_per_s: float
    horizon_s: float
    mean_iterations: float = 12.0
    diurnal_amplitude: float = 0.0
    diurnal_period_s: float = 60.0
    flash_crowds: tuple[FlashCrowd, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _check(
            math.isfinite(self.rate_per_s) and self.rate_per_s > 0,
            "arrival model",
            f"rate_per_s must be finite and positive, got {self.rate_per_s!r}",
        )
        _check(
            math.isfinite(self.horizon_s) and self.horizon_s > 0,
            "arrival model",
            f"horizon_s must be finite and positive, got {self.horizon_s!r}",
        )
        _check(
            self.mean_iterations >= 1.0 and math.isfinite(self.mean_iterations),
            "arrival model",
            f"mean_iterations must be >= 1, got {self.mean_iterations!r}",
        )
        _check(
            0.0 <= self.diurnal_amplitude < 1.0,
            "arrival model",
            f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude!r}",
        )
        _check(
            math.isfinite(self.diurnal_period_s) and self.diurnal_period_s > 0,
            "arrival model",
            f"diurnal_period_s must be finite and positive, got "
            f"{self.diurnal_period_s!r}",
        )
        for crowd in self.flash_crowds:
            _check(
                crowd.time < self.horizon_s,
                f"flash crowd at t={crowd.time:g}",
                f"lands beyond the horizon {self.horizon_s:g}",
            )

    def rate_at(self, time: float) -> float:
        """Instantaneous arrival rate at ``time`` (jobs/s)."""
        if not math.isfinite(time) or time < 0:
            raise ValueError(
                f"arrival model: rate_at time must be finite and "
                f"non-negative, got {time!r}"
            )
        swing = math.sin(2.0 * math.pi * time / self.diurnal_period_s)
        return self.rate_per_s * (1.0 + self.diurnal_amplitude * swing)

    def stream(
        self, templates: Sequence[JobSpec], seed: Optional[int] = 0
    ) -> "ArrivalStream":
        """Generate the full arrival stream (see module docstring).

        Thinning: candidate inter-arrival gaps are drawn at the peak
        rate ``rate_per_s * (1 + amplitude)`` and each candidate is
        accepted with probability ``rate(t) / peak`` — the standard
        construction for a non-homogeneous Poisson process.  Template
        choice and lifetime are drawn per accepted arrival, in arrival
        order, so the whole stream is one deterministic function of the
        seed.
        """
        if not templates:
            raise ValueError("arrival model: need at least one job template")
        rng = np.random.default_rng(seed)
        peak = self.rate_per_s * (1.0 + self.diurnal_amplitude)
        events: list[ArrivalEvent] = []
        now = 0.0
        index = 0
        while True:
            now += float(rng.exponential(1.0 / peak))
            if now >= self.horizon_s:
                break
            if self.diurnal_amplitude > 0.0:
                if float(rng.random()) >= self.rate_at(now) / peak:
                    continue  # thinned: the trough rejects candidates
            template = templates[int(rng.integers(len(templates)))]
            lifetime = int(rng.geometric(1.0 / self.mean_iterations))
            events.append(
                ArrivalEvent(
                    index=index,
                    time=now,
                    spec=template.with_name(
                        f"svc-{index:04d}-{template.name}"
                    ).with_offset(now).with_iteration_limit(lifetime),
                )
            )
            index += 1
        for crowd in self.flash_crowds:
            for _burst in range(crowd.size):
                template = templates[int(rng.integers(len(templates)))]
                events.append(
                    ArrivalEvent(
                        index=index,
                        time=crowd.time,
                        spec=template.with_name(
                            f"svc-{index:04d}-ft-{template.name}"
                        ).with_offset(crowd.time).with_iteration_limit(
                            crowd.iterations
                        ),
                        flash=True,
                    )
                )
                index += 1
        events.sort(key=lambda event: (event.time, event.index))
        return ArrivalStream(events=tuple(events), model=self)


@dataclass(frozen=True)
class ArrivalStream:
    """A fully materialized arrival sequence, sorted by arrival time."""

    events: tuple[ArrivalEvent, ...]
    model: ArrivalModel

    def __len__(self) -> int:
        return len(self.events)

    def between(self, start: float, end: float) -> tuple[ArrivalEvent, ...]:
        """Events with ``start < time <= end`` (epoch-boundary polling)."""
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(
                f"arrival stream: window must be finite, got "
                f"({start!r}, {end!r}]"
            )
        if end < start:
            raise ValueError(
                f"arrival stream: window end {end!r} precedes start {start!r}"
            )
        return tuple(e for e in self.events if start < e.time <= end)
