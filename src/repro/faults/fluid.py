"""Replaying a fault schedule inside the fluid (flow-level) simulator.

The fluid model has no packets, queues or timers, so each fault class maps
onto the quantities the model *does* have — bottleneck capacity, per-job
compute time, and per-job iteration progress:

========== =========================================================
kind        fluid effect while active
========== =========================================================
link_down   capacity factor 0 (nothing flows)
bandwidth   capacity factor ``event.factor``
loss_burst  capacity factor ``1 - loss`` (first-order throughput hit;
            the packet simulator models the real, super-linear one)
ecn_storm   capacity factor ``0.5`` (every sender halves its window
            when its whole window is marked — the DCTCP limit case)
straggler   compute phases of ``event.job`` stretched by ``factor``
job_restart job's in-flight iteration discarded; ``sent_bits`` zeroed
            (the fluid analogue of MLTCP's ``bytes_sent`` reset) and
            the job re-enters after ``restart_delay`` seconds
========== =========================================================

Concurrent capacity faults compose multiplicatively.  The mapping is a
deliberate simplification — docs/FAULTS.md spells out where it diverges
from the packet-level behaviour — but both substrates replay the *same*
:class:`~repro.faults.schedule.FaultSchedule`, which is what lets recovery
experiments cross-check each other.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

from .schedule import FABRIC_KINDS, FaultEvent, FaultSchedule, InjectionLog

__all__ = [
    "FluidFaultState",
    "ECN_STORM_CAPACITY_FACTOR",
    "CAPACITY_KINDS",
    "capacity_scale",
]

#: Fluid stand-in for a marking storm: with every packet of a window CE
#: marked, a DCTCP sender's alpha saturates at 1 and the window halves each
#: RTT — steady state, half the healthy throughput.
ECN_STORM_CAPACITY_FACTOR = 0.5

#: Fault kinds that scale a link's fluid capacity while active.
CAPACITY_KINDS = ("link_down", "bandwidth", "loss_burst", "ecn_storm")

#: The only link name the single-bottleneck fluid model knows.
_FLUID_LINKS = ("bottleneck",)


def capacity_scale(event: FaultEvent) -> float:
    """The factor one active :data:`CAPACITY_KINDS` fault multiplies its
    link's capacity by (the table above); every factor is non-negative, so
    concurrent faults compose by multiplication and a ``link_down`` pins
    the product at 0."""
    if event.kind == "link_down":
        return 0.0
    if event.kind == "bandwidth":
        return event.factor
    if event.kind == "loss_burst":
        return 1.0 - event.loss
    if event.kind == "ecn_storm":
        return ECN_STORM_CAPACITY_FACTOR
    raise ValueError(f"fault kind {event.kind!r} does not scale capacity")


class FluidFaultState(InjectionLog):
    """Queryable fault state for :class:`repro.fluid.flowsim.FluidSimulator`.

    Built once per run from a :class:`FaultSchedule`; the simulator asks it
    three questions at every step — the current capacity factor, a job's
    current compute scale, and which restarts are due — plus the transition
    times it must not integrate across (fault boundaries are rate-change
    events, exactly like phase completions).
    """

    def __init__(
        self, schedule: FaultSchedule, job_names: Iterable[str]
    ) -> None:
        schedule.validate(link_names=_FLUID_LINKS, job_names=job_names)
        for event in schedule:
            if event.kind in FABRIC_KINDS:
                raise ValueError(
                    f"fault {event.describe()} is a fabric fault; the "
                    "single-bottleneck fluid model has no fabric — replay "
                    "it with repro.fluid.fabric.FluidFabricFaults on a "
                    "FabricSpec instead"
                )
        self.schedule = schedule
        self._capacity_events: list[FaultEvent] = []
        self._straggler_events: list[FaultEvent] = []
        self._restart_events: list[FaultEvent] = []
        for event in schedule.sorted_events():
            if event.kind in CAPACITY_KINDS:
                self._capacity_events.append(event)
            elif event.kind == "straggler":
                self._straggler_events.append(event)
            else:
                self._restart_events.append(event)
        self._restarts_applied = 0
        self._transitions = list(schedule.transition_times())
        super().__init__()

    @staticmethod
    def _active(event: FaultEvent, now: float) -> bool:
        return event.time <= now < event.end_time

    def capacity_factor(self, now: float) -> float:
        """Product of every active capacity-affecting fault's factor."""
        factor = 1.0
        for event in self._capacity_events:
            if self._active(event, now):
                factor *= capacity_scale(event)
        return factor

    def compute_scale(self, job: str, now: float) -> float:
        """Compute-time multiplier for ``job`` at ``now`` (stragglers)."""
        scale = 1.0
        for event in self._straggler_events:
            if event.job == job and self._active(event, now):
                scale *= event.factor
        return scale

    def due_restarts(self, now: float, eps: float = 1e-12) -> list[FaultEvent]:
        """Restart events whose strike time has arrived, each exactly once."""
        due = []
        while self._restarts_applied < len(self._restart_events):
            event = self._restart_events[self._restarts_applied]
            if event.time > now + eps:
                break
            due.append(event)
            self._restarts_applied += 1
        return due

    def next_transition_after(self, now: float, eps: float = 1e-12) -> Optional[float]:
        """The next time the fault state changes, or None when quiescent."""
        index = bisect.bisect_right(self._transitions, now + eps)
        return self._transitions[index] if index < len(self._transitions) else None

    @property
    def last_transition(self) -> float:
        """When the final fault transition happens (0 for an empty schedule)."""
        return self._transitions[-1] if self._transitions else 0.0
