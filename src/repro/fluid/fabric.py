"""Fluid-side realization of a multi-rack fabric.

The packet simulator builds a :class:`~repro.workloads.placement.FabricSpec`
into switches and links (:func:`repro.simulator.topology.build_fat_tree`);
the fluid simulator only needs the *capacity map* of those links and the
link set each placed flow crosses.  Both come verbatim from the spec, so a
fluid run and a packet run of the same placement see identical bottlenecks:
same link names, same Gbps, same ECMP spine choices.

Typical use::

    spec = FabricSpec(n_racks=4, hosts_per_rack=4, n_spines=2,
                      oversubscription=2.0)
    placements = place_jobs(jobs, spec, policy="spread")
    result = run_network_fluid(place_on_fabric(spec, placements),
                               spec.capacities_gbps(), policy=MLTCPWeighted())
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..faults.fluid import CAPACITY_KINDS, capacity_scale
from ..faults.routing import FabricRoutingState
from ..faults.schedule import FABRIC_KINDS, FaultEvent, FaultSchedule, InjectionLog
from ..workloads.placement import FabricSpec, JobPlacement
from .arrays import _EPS_TIME
from .network import PlacedJob

__all__ = ["FluidFabricFaults", "place_on_fabric"]


def place_on_fabric(
    spec: FabricSpec, placements: Sequence[JobPlacement]
) -> tuple[PlacedJob, ...]:
    """Resolve host-level placements into fluid :class:`PlacedJob` paths."""
    return tuple(
        PlacedJob(
            job=placement.job,
            links=placement.links(spec),
            src=placement.src,
            dst=placement.dst,
        )
        for placement in placements
    )


class FluidFabricFaults(InjectionLog):
    """Fabric-fault replay for :class:`repro.fluid.network.NetworkFluidSimulator`.

    The fluid analogue of the packet injector's fabric path: one shared
    :class:`~repro.faults.routing.FabricRoutingState` answers "which links
    does this flow cross *now*?", so a spine failure reroutes in-flight
    fluid flows onto exactly the links the packet substrate picks (same
    CRC32+avalanche rule over the surviving spines), and a partitioned
    pair stalls at rate 0 — the fluid rendering of a blackhole.

    Classic directional link kinds (``link_down``/``bandwidth``/
    ``loss_burst``/``ecn_storm``) compose too: they scale the named link's
    capacity multiplicatively, exactly as the single-bottleneck
    :class:`~repro.faults.fluid.FluidFaultState` does.  Job kinds are
    rejected — the network fluid model has no restart machinery; replay
    those on the packet substrate or the single-bottleneck fluid model.

    Transitions at equal times apply in the packet engine's order (FIFO in
    arming order: per strike-sorted event, strike then reversion), keeping
    the two substrates' fault state bit-identical at every instant.  The
    simulator replays each run on a fresh copy built from ``spec`` and
    ``schedule``, so the instance a caller passes in is never advanced.
    """

    def __init__(self, spec: FabricSpec, schedule: FaultSchedule) -> None:
        schedule.validate(fabric=spec)
        for event in schedule:
            if event.kind in ("straggler", "job_restart"):
                raise ValueError(
                    f"fault {event.describe()} targets a job; the network "
                    "fluid model has no job fault machinery — replay it on "
                    "the packet substrate or the single-bottleneck fluid "
                    "model"
                )
            if event.kind in CAPACITY_KINDS and event.link is None:
                raise ValueError(
                    f"fault {event.describe()} must name its link: a fabric "
                    "has no default bottleneck"
                )
        self.spec = spec
        self.schedule = schedule
        self.routing = FabricRoutingState(spec)
        entries: list[tuple[float, int, str, FaultEvent]] = []
        seq = 0
        for event in schedule.sorted_events():
            entries.append((event.time, seq, "strike", event))
            seq += 1
            if event.duration > 0:
                entries.append((event.end_time, seq, "revert", event))
                seq += 1
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        self._transitions = entries
        self._applied = 0
        self._capacity_events = [
            e for e in schedule.sorted_events() if e.kind in CAPACITY_KINDS
        ]
        super().__init__()

    def advance_to(self, now: float, eps: float = _EPS_TIME) -> bool:
        """Apply every transition due at or before ``now``; True if any."""
        changed = False
        while self._applied < len(self._transitions):
            time, _seq, phase, event = self._transitions[self._applied]
            if time > now + eps:
                break
            if phase == "strike":
                self.record(time, event.describe())
                if event.kind in FABRIC_KINDS:
                    self.routing.apply(event)
            else:
                self.record(time, f"{event.kind} on {event.target} reverted")
                if event.kind in FABRIC_KINDS:
                    self.routing.revert(event)
            self._applied += 1
            changed = True
        return changed

    def capacity_factors(self, now: float) -> dict[str, float]:
        """Per-link multiplicative capacity factor; links at 1.0 omitted.

        Links severed by the routing state (spine/uplink/partition faults)
        carry factor 0; active classic capacity kinds compose onto their
        directed link multiplicatively through the same
        :func:`repro.faults.fluid.capacity_scale` as
        :meth:`repro.faults.fluid.FluidFaultState.capacity_factor`.
        """
        factors: dict[str, float] = {}
        for link in self.routing.down_links():
            factors[link] = 0.0
        for event in self._capacity_events:
            if not event.time <= now < event.end_time:
                continue
            link = event.link
            assert link is not None
            factors[link] = factors.get(link, 1.0) * capacity_scale(event)
        return factors

    def links_for(self, placement: PlacedJob) -> Optional[tuple[str, ...]]:
        """The links ``placement`` crosses under the current fault state.

        ``None`` means no surviving path (the pair is partitioned): the
        flow stalls until a reversion restores connectivity.  Placements
        without ``src``/``dst`` metadata cannot be rerouted and keep their
        static link set.
        """
        if placement.src is None or placement.dst is None:
            return placement.links
        return self.routing.path_links(placement.src, placement.dst)

    def next_transition_after(
        self, now: float, eps: float = _EPS_TIME
    ) -> Optional[float]:
        """The next time the fault state changes, or None when drained."""
        for time, _seq, _phase, _event in self._transitions[self._applied:]:
            if time > now + eps:
                return time
        return None
