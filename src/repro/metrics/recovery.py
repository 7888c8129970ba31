"""Recovery SLOs: how fast the fabric and the workload heal after a fault.

MLTCP's robustness story (paper §4) is that interleaving *re-converges*
without a controller: after a perturbation the gradient-descent dynamics
simply resume from the perturbed state.  This module turns that claim into
three measurable service-level objectives per injected fault:

``time_to_reroute``
    How long placed traffic had no surviving path.  Failure-aware ECMP
    recomputes routes deterministically at the strike instant, so this is
    0 whenever every placed cross-rack pair keeps a surviving spine, and
    the full fault duration when a pair is blackholed (connectivity only
    returns at repair).

``time_to_reinterleave``
    How long after repair the workload takes to re-reach the paper's §4
    interleavable condition *operationally*: the first completed round
    whose mean iteration time is back within ``(1 + tolerance) x ideal``,
    confirmed by ``window`` consecutive such rounds.  ``None`` if the run
    never re-interleaves — which is the expected outcome for fair share,
    whose converged iteration time sits well above ideal even fault-free.

``goodput_lost_bits``
    Iteration-weighted goodput lost to the fault: iterations a fault-free
    control run of the same seed completed inside the fault window (plus a
    settling margin) that the faulted run did not, weighted by each job's
    per-iteration communication volume.

The static §4 feasibility check (does a perfect interleave exist at all?)
is :func:`repro.metrics.contention.link_contention_report`; SLOs carry it
alongside so a report can distinguish "never re-interleaved because the
placement cannot" from "cannot because the policy does not slide".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..faults.routing import FabricRoutingState
from ..faults.schedule import FaultEvent, FaultSchedule
from ..workloads.job import IterationResult, mean_by_round
from ..workloads.placement import FabricSpec, JobPlacement

__all__ = [
    "FaultWindow",
    "RecoverySLO",
    "fault_windows",
    "goodput_deficit_bits",
    "recovery_slos",
    "reinterleave_time",
    "reroute_outage",
]


@dataclass(frozen=True)
class FaultWindow:
    """The active interval of one scheduled fault."""

    event: FaultEvent

    @property
    def start(self) -> float:
        """Strike time (s)."""
        return self.event.time

    @property
    def end(self) -> float:
        """Reversion time (s) — equals ``start`` for instantaneous faults."""
        return self.event.end_time

    @property
    def description(self) -> str:
        """The event's human-readable description."""
        return self.event.describe()


def fault_windows(schedule: FaultSchedule) -> tuple[FaultWindow, ...]:
    """Active windows of every non-instantaneous fault, by strike time."""
    return tuple(
        FaultWindow(event)
        for event in schedule.sorted_events()
        if event.duration > 0
    )


def reroute_outage(
    spec: FabricSpec,
    schedule: FaultSchedule,
    event: FaultEvent,
    placements: Sequence[JobPlacement],
) -> float:
    """Seconds placed traffic had no surviving path because of ``event``.

    Failure-aware ECMP reroutes deterministically at the strike instant,
    so the outage is 0 when every placed pair still has a surviving path
    under the fault state at the strike (``event`` plus every other
    scheduled fault active at that moment).  A blackholed pair only
    regains connectivity at repair: the outage is the event's duration.
    """
    if event.duration <= 0:
        return 0.0
    state = FabricRoutingState(spec)
    # ``event`` is active at its own strike, so this applies it too.
    for other in schedule.sorted_events():
        if other.time <= event.time < other.end_time:
            state.apply(other)
    for placement in placements:
        if state.path_links(placement.src, placement.dst) is None:
            return event.duration
    return 0.0


def reinterleave_time(
    iterations: Sequence[IterationResult],
    jobs: Sequence[str],
    *,
    recovery_time: float,
    ideal_iteration_time: float,
    tolerance: float = 0.10,
    window: int = 3,
) -> Optional[float]:
    """Seconds after repair until the workload is interleaved again.

    A round is the i-th iteration of every job; its completion time is the
    latest ``iteration_end`` among them and its cost the mean duration.
    The workload has re-interleaved at the first round that (a) completes
    after ``recovery_time`` and (b) starts ``window`` consecutive rounds
    whose mean cost is within ``(1 + tolerance) x ideal_iteration_time``
    — the operational form of the paper's §4 interleavable condition.
    Returns the delay from ``recovery_time`` to that round's completion,
    or ``None`` if no such confirmed round exists.  ``iterations`` holds
    each job's iterations in completion order, as every run result does.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window!r}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance!r}")
    per_job = [[it for it in iterations if it.job == name] for name in jobs]
    mean_cost = mean_by_round([np.array([it.duration for it in its]) for its in per_job])
    done_at = [
        max(its[r].iteration_end for its in per_job) for r in range(len(mean_cost))
    ]
    bound = (1.0 + tolerance) * ideal_iteration_time
    ok = mean_cost <= bound
    for r in range(len(mean_cost) - window + 1):
        if done_at[r] >= recovery_time and bool(ok[r : r + window].all()):
            return float(max(0.0, done_at[r] - recovery_time))
    return None


def goodput_deficit_bits(
    faulted: Sequence[IterationResult],
    control: Sequence[IterationResult],
    window: FaultWindow,
    comm_bits: Mapping[str, float],
    *,
    margin: float = 0.0,
) -> float:
    """Goodput (bits) the fault cost, against a fault-free control run.

    Counts iterations completing inside ``[window.start, window.end +
    margin]`` per job in both runs; each iteration the control completed
    but the faulted run did not is one lost communication volume.  The
    ``margin`` absorbs the settling rounds right after repair.  Clamped
    at 0 per job — a job that somehow got *ahead* does not offset others.
    """
    lo, hi = window.start, window.end + margin

    def count(run: Sequence[IterationResult]) -> dict[str, int]:
        done: dict[str, int] = {name: 0 for name in comm_bits}
        for it in run:
            if lo <= it.iteration_end <= hi and it.job in done:
                done[it.job] += 1
        return done

    control_done = count(control)
    faulted_done = count(faulted)
    return float(
        sum(
            max(0, control_done[name] - faulted_done[name]) * comm_bits[name]
            for name in sorted(comm_bits)
        )
    )


@dataclass(frozen=True)
class RecoverySLO:
    """Recovery objectives for one fault in one run.

    ``interleavable`` is the *static* §4 feasibility of the healthy
    placement (a perfect interleave exists); ``reinterleaved`` is whether
    this run actually got back to it after this fault.
    """

    fault: str
    strike_time: float
    recovery_time: float
    time_to_reroute: float
    time_to_reinterleave: Optional[float]
    goodput_lost_bits: float
    interleavable: bool

    @property
    def reinterleaved(self) -> bool:
        """Did the run re-reach the interleavable condition after repair?"""
        return self.time_to_reinterleave is not None

    def as_record(self) -> dict[str, object]:
        """JSON-ready payload of the run report's ``recovery`` record."""
        return {
            "fault": self.fault,
            "strike_time": self.strike_time,
            "recovery_time": self.recovery_time,
            "time_to_reroute": self.time_to_reroute,
            "time_to_reinterleave": self.time_to_reinterleave,
            "goodput_lost_bits": self.goodput_lost_bits,
            "interleavable": self.interleavable,
            "reinterleaved": self.reinterleaved,
        }


def recovery_slos(
    spec: FabricSpec,
    schedule: FaultSchedule,
    placements: Sequence[JobPlacement],
    iterations: Sequence[IterationResult],
    control: Sequence[IterationResult],
    *,
    ideal_iteration_time: float,
    interleavable: bool,
    tolerance: float = 0.10,
    window: int = 3,
    margin: Optional[float] = None,
) -> tuple[RecoverySLO, ...]:
    """Assemble one :class:`RecoverySLO` per scheduled fault window.

    ``iterations`` is the faulted run, ``control`` a fault-free run of
    the same placement and seed; ``interleavable`` the placement's static
    §4 feasibility.  ``margin`` (for the goodput deficit) defaults to two
    ideal iteration times, absorbing the settling rounds after repair.
    """
    if margin is None:
        margin = 2.0 * ideal_iteration_time
    jobs = [placement.job.name for placement in placements]
    comm_bits = {
        placement.job.name: placement.job.comm_bits for placement in placements
    }
    slos = []
    for fault_window in fault_windows(schedule):
        slos.append(
            RecoverySLO(
                fault=fault_window.description,
                strike_time=fault_window.start,
                recovery_time=fault_window.end,
                time_to_reroute=reroute_outage(
                    spec, schedule, fault_window.event, placements
                ),
                time_to_reinterleave=reinterleave_time(
                    iterations,
                    jobs,
                    recovery_time=fault_window.end,
                    ideal_iteration_time=ideal_iteration_time,
                    tolerance=tolerance,
                    window=window,
                ),
                goodput_lost_bits=goodput_deficit_bits(
                    iterations, control, fault_window, comm_bits, margin=margin
                ),
                interleavable=interleavable,
            )
        )
    return tuple(slos)
