"""Per-link contention and hyper-period compatibility on a fabric.

:mod:`repro.schedulers.compatibility` scores a job mix on *one* link; on a
multi-rack fabric each link sees a different competitor set, so the
question becomes per-link: over one hyper-period of the jobs crossing a
given rack<->spine link, does their summed offered load fit the link?

The load signals follow psim's ``get_link_loads`` shape (SNIPPETS.md):
for each rack, an ``{"up": ..., "down": ...}`` pair of time series — here
in Gbps, summed over the rack's spine uplinks — which is what a
CASSINI-style hyper-period scheduler would feed its compatibility check.
:func:`link_contention_report` refines that to individual physical links
and reports, per link, the competitor set, mean/peak load and the
fraction of the hyper-period the link is overloaded (0.0 means an
interleave exists *as placed*; MLTCP's §4 guarantee applies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..workloads.job import JobSpec
from ..workloads.placement import FabricSpec, JobPlacement
from ..workloads.traffic import SQUARE, PulseShape, demand_trace

__all__ = [
    "hyper_period",
    "rack_link_loads",
    "LinkContention",
    "link_contention_report",
]

#: Quantum, seconds, that :func:`hyper_period` rounds each period to.
HYPER_PERIOD_RESOLUTION_S = 1e-4


def hyper_period(jobs: Sequence[JobSpec]) -> float:
    """Least common multiple of the jobs' ideal iteration periods.

    Periods are quantized to :data:`HYPER_PERIOD_RESOLUTION_S` before the
    integer LCM, which keeps float periods from exploding the result;
    identical jobs yield exactly one period.
    """
    if not jobs:
        raise ValueError("need at least one job")
    resolution = HYPER_PERIOD_RESOLUTION_S
    ticks = [
        max(1, int(round(job.ideal_iteration_time / resolution))) for job in jobs
    ]
    lcm = ticks[0]
    for t in ticks[1:]:
        lcm = lcm * t // math.gcd(lcm, t)
    return lcm * resolution


def rack_link_loads(
    placements: Sequence[JobPlacement],
    spec: FabricSpec,
    duration: Optional[float] = None,
    dt: float = 0.0005,
    shape: PulseShape = SQUARE,
) -> list[dict[str, np.ndarray]]:
    """Per-rack offered load on the up/down fabric directions, in Gbps.

    Element ``i`` is rack ``i``'s ``{"up": series, "down": series}`` —
    the summed isolated demand traces of the cross-rack flows leaving
    (``up``) and entering (``down``) the rack, sampled every ``dt``
    seconds over ``duration`` (default: one hyper-period).  Intra-rack
    flows never touch uplinks and contribute nothing.
    """
    if not placements:
        raise ValueError("need at least one placement")
    if duration is None:
        duration = hyper_period([p.job for p in placements])
    samples = int(round(duration / dt))
    loads = [
        {"up": np.zeros(samples), "down": np.zeros(samples)}
        for _rack in range(spec.n_racks)
    ]
    for placement in placements:
        if not placement.cross_rack:
            continue
        nodes = placement.nodes(spec)
        src_rack = int(nodes[1][len("rack"):])
        dst_rack = int(nodes[-2][len("rack"):])
        _times, demand = demand_trace(
            placement.job.with_jitter(0.0), duration, dt=dt, shape=shape
        )
        loads[src_rack]["up"] += demand
        loads[dst_rack]["down"] += demand
    return loads


@dataclass(frozen=True)
class LinkContention:
    """Contention summary of one physical fabric link over a hyper-period."""

    link: str
    capacity_gbps: float
    competitors: tuple[str, ...]
    mean_load_gbps: float
    peak_load_gbps: float
    overload_fraction: float

    @property
    def interleavable(self) -> bool:
        """Whether the competitors' mean load fits the link — the necessary
        condition for a zero-contention interleave on this link."""
        return self.mean_load_gbps <= self.capacity_gbps * (1.0 + 1e-9)

    @property
    def contended(self) -> bool:
        """Whether the as-placed (synchronized) schedule ever overloads it."""
        return self.overload_fraction > 0.0


def link_contention_report(
    placements: Sequence[JobPlacement],
    spec: FabricSpec,
    duration: Optional[float] = None,
    dt: float = 0.0005,
    shape: PulseShape = SQUARE,
) -> list[LinkContention]:
    """Per-physical-link contention over one hyper-period, sorted by name.

    Covers every rack<->spine link of the fabric (edge links carry at
    most one flow under :func:`~repro.workloads.placement.place_jobs`, so
    they cannot be contended).  For each link: which jobs cross it (the
    competitor set — distinct per link under cross-rack placement), the
    mean and peak of their summed isolated demand, and the fraction of
    the hyper-period that demand exceeds capacity with all jobs starting
    as placed.  ``overload_fraction == 0`` on every link means the
    placement is compatible as-is; ``interleavable`` distinguishes links
    MLTCP can fix by sliding from links that are simply over capacity.
    """
    if not placements:
        raise ValueError("need at least one placement")
    if duration is None:
        duration = hyper_period([p.job for p in placements])

    members: dict[str, list[JobPlacement]] = {
        link: [] for link in spec.fabric_links()
    }
    for placement in placements:
        for link in placement.links(spec):
            if link in members:
                members[link].append(placement)

    capacity = spec.uplink_gbps
    report: list[LinkContention] = []
    for link in sorted(members):
        crossing = members[link]
        total: Optional[np.ndarray] = None
        for placement in crossing:
            _times, demand = demand_trace(
                placement.job.with_jitter(0.0), duration, dt=dt, shape=shape
            )
            total = demand if total is None else total + demand
        if total is None:
            mean = peak = overload = 0.0
        else:
            mean = float(total.mean())
            peak = float(total.max())
            overload = float((total > capacity + 1e-9).mean())
        report.append(
            LinkContention(
                link=link,
                capacity_gbps=capacity,
                competitors=tuple(p.job.name for p in crossing),
                mean_load_gbps=mean,
                peak_load_gbps=peak,
                overload_fraction=overload,
            )
        )
    return report
