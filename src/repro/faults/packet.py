"""Replaying a fault schedule inside the packet-level simulator.

:func:`install_packet_faults` validates a
:class:`~repro.faults.schedule.FaultSchedule` against the assembled
topology/apps and schedules one engine event per fault transition: the
strike at ``event.time`` and (for faults with a duration) the reversion at
``event.time + duration``.  Everything runs through the hooks the substrate
already exposes — :class:`repro.simulator.link.Link`'s down/rate/loss/storm
controls and :meth:`repro.simulator.app.TrainingApp.restart` — so fault
replay composes with any congestion control, queue discipline or topology.

Burst-loss coin flips draw from a generator seeded by
``FaultSchedule.seed``, independent of the links' own ``random_loss``
streams, so adding a fault schedule never perturbs the baseline noise
realization: the same run with and without faults differs only where the
faults act.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from ..simulator.app import TrainingApp
from ..simulator.engine import Simulator
from ..simulator.link import Link
from ..simulator.topology import Network
from .routing import FabricRoutingState
from .schedule import FABRIC_KINDS, FaultEvent, FaultSchedule, InjectionLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..guards import GuardRail
    from ..workloads.placement import FabricSpec

__all__ = ["InjectionLog", "install_packet_faults", "DEFAULT_BOTTLENECK"]

#: Link targeted when an event names none: the dumbbell's data direction.
DEFAULT_BOTTLENECK = "sw_l->sw_r"


def _link_names(network: Network) -> dict[str, Link]:
    return {f"{src}->{dst}": link for (src, dst), link in network.links.items()}


def install_packet_faults(
    sim: Simulator,
    network: Network,
    schedule: FaultSchedule,
    apps: Optional[Mapping[str, TrainingApp]] = None,
    fabric: Optional["FabricSpec"] = None,
    guards: Optional["GuardRail"] = None,
) -> InjectionLog:
    """Arm every fault in ``schedule`` on an assembled packet testbed.

    Must be called before ``sim.run``.  Link events default to the
    :data:`DEFAULT_BOTTLENECK`; job events require ``apps`` (the mapping
    :func:`repro.harness.packetlab.run_packet_jobs` builds).  The schedule
    is re-validated against the *actual* link and job names so a schedule
    written for one topology fails fast on another.  Returns the
    :class:`InjectionLog` that the armed events will append to as the
    simulation replays them.

    Fabric faults (:data:`~repro.faults.schedule.FABRIC_KINDS`) require
    ``fabric`` — the :class:`~repro.workloads.placement.FabricSpec` the
    network was built from.  On each strike/revert the shared
    :class:`~repro.faults.routing.FabricRoutingState` recomputes ECMP over
    the surviving spines, the affected links are toggled down/up, and every
    changed host-pair route is reinstalled in ``network.routes`` — so
    in-flight flows reroute deterministically onto the same links the fluid
    substrate picks.  Pairs with *no* surviving path keep their stale route
    and blackhole at the severed link until repair.  When ``guards`` is
    given, the route-liveness and reroute-conservation monitors run after
    every fabric transition.
    """
    links = _link_names(network)
    job_names = set(apps) if apps is not None else None
    schedule.validate(link_names=links, job_names=job_names, fabric=fabric)
    log = InjectionLog()
    loss_rng = np.random.default_rng(schedule.seed)

    fabric_events = [e for e in schedule.sorted_events() if e.kind in FABRIC_KINDS]
    routing: Optional[FabricRoutingState] = None
    if fabric_events:
        if fabric is None:
            raise ValueError(
                f"fault {fabric_events[0].describe()} is a fabric fault; "
                "pass fabric=FabricSpec(...) to install_packet_faults so "
                "routing can be recomputed over the surviving spines"
            )
        routing = FabricRoutingState(fabric)
        reroute = _fabric_transition_applier(sim, network, routing, links, guards)

    for event in schedule.sorted_events():
        if event.kind in FABRIC_KINDS:
            assert routing is not None
            _arm_fabric_fault(sim, event, routing, reroute, log)
        elif event.kind in ("straggler", "job_restart"):
            if apps is None:
                raise ValueError(
                    f"fault {event.describe()} targets a job but no apps "
                    "mapping was provided to install_packet_faults"
                )
            app = apps[event.job]
            _arm_job_fault(sim, event, app, log)
        else:
            link_name = event.link if event.link is not None else DEFAULT_BOTTLENECK
            if link_name not in links:
                raise ValueError(
                    f"fault {event.describe()} targets link {link_name!r} "
                    f"which does not exist; available: {sorted(links)}"
                )
            _arm_link_fault(sim, event, links[link_name], loss_rng, log)
    return log


def _arm_link_fault(
    sim: Simulator,
    event: FaultEvent,
    link: Link,
    loss_rng: np.random.Generator,
    log: InjectionLog,
) -> None:
    def strike() -> None:
        log.record(sim.now, event.describe())
        if event.kind == "link_down":
            link.set_down()
        elif event.kind == "bandwidth":
            link.set_rate_factor(event.factor)
        elif event.kind == "loss_burst":
            link.set_fault_loss(event.loss, rng=loss_rng)
        elif event.kind == "ecn_storm":
            link.set_ecn_storm(True)

    def revert() -> None:
        log.record(sim.now, f"{event.kind} on {link.name} reverted")
        if event.kind == "link_down":
            link.set_up()
        elif event.kind == "bandwidth":
            link.set_rate_factor(1.0)
        elif event.kind == "loss_burst":
            link.set_fault_loss(0.0)
        elif event.kind == "ecn_storm":
            link.set_ecn_storm(False)

    sim.schedule_at(event.time, strike)
    sim.schedule_at(event.end_time, revert)


def _fabric_transition_applier(
    sim: Simulator,
    network: Network,
    routing: FabricRoutingState,
    links: dict[str, Link],
    guards: Optional["GuardRail"],
):
    """Closure syncing the live network to the routing state after a fault.

    Only the delta against the links *this* subsystem previously downed is
    toggled, so a concurrent classic ``link_down`` on an unrelated link is
    never clobbered by a fabric reversion.  Route reinstalls go through
    :meth:`Network.apply_routing`; pairs with no surviving path keep their
    stale route and blackhole at the severed link.
    """
    fabric_down: list[frozenset[str]] = [frozenset()]

    def apply_transition() -> None:
        down = routing.down_links()
        for name in sorted(fabric_down[0] - down):
            links[name].set_up()
        for name in sorted(down - fabric_down[0]):
            links[name].set_down()
        fabric_down[0] = down
        network.apply_routing(routing)
        if guards is not None:
            from ..guards.monitors import (
                check_reroute_conservation,
                check_route_liveness,
            )

            check_route_liveness(guards, network, routing, now=sim.now)
            check_reroute_conservation(guards, network, now=sim.now)

    return apply_transition


def _arm_fabric_fault(
    sim: Simulator,
    event: FaultEvent,
    routing: FabricRoutingState,
    reroute,
    log: InjectionLog,
) -> None:
    def strike() -> None:
        log.record(sim.now, event.describe())
        routing.apply(event)
        reroute()

    def revert() -> None:
        log.record(sim.now, f"{event.kind} on {event.target} reverted")
        routing.revert(event)
        reroute()

    sim.schedule_at(event.time, strike)
    sim.schedule_at(event.end_time, revert)


def _arm_job_fault(
    sim: Simulator, event: FaultEvent, app: TrainingApp, log: InjectionLog
) -> None:
    if event.kind == "straggler":

        def strike() -> None:
            log.record(sim.now, event.describe())
            app.compute_scale = event.factor

        def revert() -> None:
            log.record(sim.now, f"straggler on {event.job} reverted")
            app.compute_scale = 1.0

        sim.schedule_at(event.time, strike)
        sim.schedule_at(event.end_time, revert)
    else:  # job_restart

        def kill() -> None:
            log.record(sim.now, event.describe())
            app.restart(delay=event.restart_delay)

        sim.schedule_at(event.time, kill)
