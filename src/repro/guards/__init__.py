"""Runtime guardrails: invariant monitors, watchdogs, degradation hooks.

The subsystem has three layers (docs/ROBUSTNESS.md has the full
catalogue and the degradation state machine):

1. **Invariant monitors** (:mod:`~repro.guards.monitors`) — pluggable
   checks for byte/flow conservation per link, cwnd bounds, allocation
   capacity, engine time monotonicity and Algorithm 1 tracker sanity,
   all reporting into one :class:`GuardRail` whose policy is ``record``
   (experiments) or ``raise`` (tests, ``make guards-smoke``).  Off by
   default: without a rail attached no check runs, and the event engine
   pays one ``is not None`` test per event.
2. **Graceful MLTCP degradation** — not in this package but driven by
   it: when the iteration tracker flags its estimate unreliable,
   :class:`repro.tcp.mltcp.MltcpState` clamps ``F(bytes_ratio)`` to 1
   (vanilla Reno/CUBIC/DCTCP) and reports here with
   ``fallback_engaged=True``.
3. **Watchdogs** (:mod:`~repro.guards.watchdog`) — the serve stepper's
   per-epoch progress monitor and the packet-substrate heartbeat
   installer; the packet engine checks its own clock per event, and the
   harness wall-clock watchdog lives in :mod:`repro.harness.runner`.

Quick start::

    from repro.guards import GuardRail
    rail = GuardRail("raise")                  # tests: violations raise
    run_fluid(jobs, 50.0, policy=..., guards=rail)
    run_packet_jobs(jobs, factory, guards=rail)
    rail.violations                            # InvariantViolation records
"""

from .core import POLICIES, GuardRail, GuardViolationError, InvariantViolation
from .monitors import (
    ALLOCATION_REL_TOL,
    check_allocation,
    check_cwnd_bounds,
    check_link_conservation,
    check_reroute_conservation,
    check_route_liveness,
    check_tracker_sanity,
)
from .watchdog import (
    StepperWatchdog,
    bdp_cwnd_cap,
    certified_cwnd_slack,
    install_packet_guards,
)

__all__ = [
    "POLICIES",
    "GuardRail",
    "GuardViolationError",
    "InvariantViolation",
    "ALLOCATION_REL_TOL",
    "check_allocation",
    "check_cwnd_bounds",
    "check_link_conservation",
    "check_reroute_conservation",
    "check_route_liveness",
    "check_tracker_sanity",
    "StepperWatchdog",
    "bdp_cwnd_cap",
    "certified_cwnd_slack",
    "install_packet_guards",
]
