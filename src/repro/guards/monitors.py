"""Invariant monitors: the pluggable checks behind the guardrail.

Each function checks one physical invariant and reports breaches to a
:class:`~repro.guards.core.GuardRail`; what happens next (record or
raise) is the rail's policy, not the monitor's business.  Monitors are
pure observers — they never mutate the object they inspect — and they are
only ever called when a rail is attached, so simulations without guards
run none of them.

The guard catalogue (names, layers, failure meanings) is documented in
docs/ROBUSTNESS.md.  Call sites:

* ``allocation-capacity`` / ``allocation-negative`` — every fresh
  allocation in :class:`repro.fluid.flowsim.FluidSimulator` (its
  ``_check_allocation`` calls :func:`check_allocation` with the policy's
  name as ``subject``) and ad-hoc policy checks.
* ``link-conservation`` — packet heartbeats
  (:func:`repro.guards.watchdog.install_packet_guards`).
* ``cwnd-bounds`` — same heartbeats, against a BDP-derived cap.
* ``tracker-sanity`` — heartbeats plus the degradation state machine in
  :class:`repro.tcp.mltcp.MltcpState` (which reports with
  ``fallback_engaged=True`` when it clamps F to 1).
* ``engine-monotonic`` / ``engine-stall`` — the engine's monitored event
  loop (``Simulator(monitor=rail)``).
* ``route-liveness`` / ``reroute-conservation`` — after every fabric-fault
  transition in :func:`repro.faults.packet.install_packet_faults` and per
  step in the faulted :class:`repro.fluid.network.NetworkFluidSimulator`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..fluid.allocation import allocation_excess
from .core import GuardRail

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.iteration import IterationTracker
    from ..faults.routing import FabricRoutingState
    from ..simulator.link import Link
    from ..simulator.topology import Network

__all__ = [
    "ALLOCATION_REL_TOL",
    "check_allocation",
    "check_link_conservation",
    "check_cwnd_bounds",
    "check_reroute_conservation",
    "check_route_liveness",
    "check_tracker_sanity",
]

#: Relative float tolerance for allocation-sum checks: water-fill levels
#: are sums of many small floats, so the total may exceed capacity by a
#: few ulps without being wrong.
ALLOCATION_REL_TOL = 1e-6


def check_allocation(
    rail: GuardRail,
    rates: Mapping[str, float],
    capacity_bps: float,
    *,
    now: float,
    subject: str = "allocation",
) -> None:
    """Allocated rates must be non-negative and sum to at most capacity."""
    if not rates:
        return
    excess = allocation_excess(rates, capacity_bps)
    if excess > ALLOCATION_REL_TOL * capacity_bps:
        rail.violation(
            "allocation-capacity",
            subject,
            now,
            f"allocated {capacity_bps + excess:.6g} bps exceeds capacity "
            f"{capacity_bps:.6g} bps by {excess:.6g} bps",
        )
    for flow_id in sorted(rates):
        rate = rates[flow_id]
        if rate < 0.0:
            rail.violation(
                "allocation-negative",
                str(flow_id),
                now,
                f"negative allocated rate {rate!r} bps from {subject}",
            )


def check_link_conservation(rail: GuardRail, link: "Link", *, now: float) -> None:
    """Every packet a link accepted is dequeued or still buffered.

    Uses :meth:`repro.simulator.link.Link.conservation_delta`, which is
    exact at any instant (lazy settling keeps planned-but-started packets
    both buffered and uncounted, so the identity holds mid-burst too).
    """
    delta = link.conservation_delta()
    if delta != 0:
        rail.violation(
            "link-conservation",
            link.name,
            now,
            f"accepted-packet imbalance {delta:+d} "
            "(enqueued != dequeued + buffered)",
        )


def check_cwnd_bounds(
    rail: GuardRail,
    flow: str,
    cwnd: float,
    *,
    now: float,
    min_cwnd: float = 1.0,
    max_cwnd: float = float("inf"),
) -> None:
    """cwnd must stay within [min_cwnd, a BDP-derived cap].

    The cap (:func:`repro.guards.watchdog.bdp_cwnd_cap`) is deliberately
    slack — recovery inflation and queue absorption are legitimate — so a
    breach means runaway window growth, not ordinary dynamics.
    """
    if cwnd < min_cwnd:
        rail.violation(
            "cwnd-bounds",
            flow,
            now,
            f"cwnd {cwnd:.6g} below the floor {min_cwnd:.6g}",
        )
    elif cwnd > max_cwnd:
        rail.violation(
            "cwnd-bounds",
            flow,
            now,
            f"cwnd {cwnd:.6g} above the BDP-derived cap {max_cwnd:.6g}",
        )


def check_route_liveness(
    rail: GuardRail,
    network: "Network",
    routing: "FabricRoutingState",
    *,
    now: float,
) -> None:
    """Installed routes agree with the failure-aware routing state.

    After a fabric-fault transition every host pair that still *has* a
    surviving path must have exactly that path programmed in
    ``network.routes`` — anything else means the reroute pass missed a
    pair and live traffic is steered at a severed or stale link.  Pairs
    whose current path is ``None`` (e.g. a partitioned rack) are expected
    to keep their stale route and blackhole, so they are skipped.
    """
    for (src, dst), installed in sorted(network.routes.items()):
        expected = routing.path_nodes(src, dst)
        if expected is not None and tuple(expected) != installed:
            rail.violation(
                "route-liveness",
                f"{src}->{dst}",
                now,
                f"installed route {'->'.join(installed)} disagrees with the "
                f"surviving-spine path {'->'.join(expected)}",
            )


def check_reroute_conservation(
    rail: GuardRail, network: "Network", *, now: float
) -> None:
    """No packet vanishes across a reroute: every link still conserves.

    Severing a link mid-serialization and repointing routing tables must
    leave each link's accepted = dequeued + buffered identity intact
    (:meth:`repro.simulator.link.Link.conservation_delta` is exact even
    while a link is down).  Run after every fabric-fault transition;
    reports under its own guard name so a report reader can tell a
    reroute-triggered breach from a periodic heartbeat one.
    """
    for _key, link in sorted(network.links.items()):
        delta = link.conservation_delta()
        if delta != 0:
            rail.violation(
                "reroute-conservation",
                link.name,
                now,
                f"accepted-packet imbalance {delta:+d} across a fabric "
                "transition (enqueued != dequeued + buffered)",
            )


def check_tracker_sanity(
    rail: GuardRail,
    tracker: "IterationTracker",
    *,
    now: float,
    flow: str = "",
) -> None:
    """Algorithm 1 state stays in range: ``bytes_ratio`` in [0, 1], counts
    non-negative.  Estimate *drift* is the tracker's own job (it flags
    itself unreliable and MLTCP degrades — see docs/ROBUSTNESS.md); this
    check catches state corruption the state machine cannot explain."""
    ratio = tracker.bytes_ratio
    if not 0.0 <= ratio <= 1.0:
        rail.violation(
            "tracker-sanity",
            flow,
            now,
            f"bytes_ratio {ratio!r} outside [0, 1]",
        )
    if tracker.bytes_sent < 0:
        rail.violation(
            "tracker-sanity",
            flow,
            now,
            f"bytes_sent {tracker.bytes_sent!r} is negative",
        )
