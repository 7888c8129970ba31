"""Watchdogs: progress monitors for the engine and packet-sim installers.

Two complementary stall detectors exist:

* The engine's own monitor checks (``Simulator(monitor=rail)``) test
  *per event* that dispatch times never run backwards and that the
  clock keeps advancing (``stall_event_limit`` events at one timestamp is
  a zero-delay livelock).  Exact, but pays a branch per event.
* :class:`EngineWatchdog` here samples *per heartbeat*: between beats it
  bounds scheduling activity (an event storm that outruns
  ``max_events_per_interval`` is a livelock in wall-clock terms) and
  checks clock monotonicity.  Coarse, but nearly free.

The third layer — converting a *wall-clock* hang into a
:class:`repro.harness.runner.FailedPoint` — lives in the experiment
runner's per-point timeout machinery and is surfaced as ``watchdog``
records in the telemetry (docs/ROBUSTNESS.md).

:func:`install_packet_guards` wires the periodic packet-substrate checks
(cwnd bounds, link conservation, tracker sanity) onto a simulation as
ordinary heartbeat events, so the hot event loop stays untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from .core import GuardRail
from .monitors import check_cwnd_bounds, check_link_conservation, check_tracker_sanity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.engine import Simulator
    from ..simulator.topology import Network
    from ..tcp.base import TcpSender

__all__ = [
    "EngineWatchdog",
    "StepperWatchdog",
    "bdp_cwnd_cap",
    "certified_cwnd_slack",
    "install_packet_guards",
]


class EngineWatchdog:
    """Heartbeat-based progress monitor for one :class:`Simulator`.

    Every ``interval`` seconds of simulation time the watchdog checks
    that (a) the clock did not run backwards since the previous beat and
    (b) no more than ``max_events_per_interval`` events were *scheduled*
    between beats.  Scheduling activity is read off the engine's event
    sequence counter, which is live mid-run — the engine's
    ``events_processed`` counter is only flushed when ``run()`` returns,
    so it cannot drive an in-run check; and for livelock detection the
    two are equivalent, since a zero-delay livelock schedules (at least)
    one event per event it burns.  The watchdog stops re-arming once it
    would be the only pending event, so it never keeps a finished
    simulation alive.
    """

    def __init__(
        self,
        sim: "Simulator",
        rail: GuardRail,
        interval: float = 0.01,
        max_events_per_interval: int = 2_000_000,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        if max_events_per_interval < 1:
            raise ValueError(
                f"max_events_per_interval must be positive, got "
                f"{max_events_per_interval!r}"
            )
        self.sim = sim
        self.rail = rail
        self.interval = interval
        self.max_events_per_interval = max_events_per_interval
        self.beats = 0
        self._last_now = sim.now
        self._last_seq = 0
        self._started = False

    def start(self) -> None:
        """Arm the first heartbeat."""
        if self._started:
            raise RuntimeError("watchdog already started")
        self._started = True
        self._last_now = self.sim.now
        entry = self.sim.schedule(self.interval, self._beat)
        self._last_seq = int(entry[1])

    def _beat(self) -> None:
        sim = self.sim
        now = sim.now
        self.beats += 1
        if now < self._last_now:
            self.rail.violation(
                "engine-monotonic",
                "watchdog",
                now,
                f"clock ran backwards: {now!r} < previous beat {self._last_now!r}",
            )
        self._last_now = now
        if sim.pending_events() <= 0:
            return
        # Re-arm first: the fresh entry's sequence number brackets exactly
        # one interval's worth of schedule() calls (minus this arming).
        entry = sim.schedule(self.interval, self._beat)
        seq = int(entry[1])
        delta = seq - self._last_seq - 1
        self._last_seq = seq
        if delta > self.max_events_per_interval:
            self.rail.violation(
                "engine-stall",
                "watchdog",
                now,
                f"{delta} events scheduled in one {self.interval:.6g} s beat "
                f"(limit {self.max_events_per_interval}); zero-delay livelock?",
            )


class StepperWatchdog:
    """Per-epoch progress monitor for the service daemon's stepper.

    The churn daemon (:mod:`repro.service`) advances its live simulation
    one epoch at a time.  Around each epoch the supervisor brackets the
    step with :meth:`begin` / :meth:`check`; the watchdog verifies that
    (a) simulated time never ran backwards, (b) the step actually reached
    its target time (a stepper that returns early is stalled), and (c) —
    when a wall clock is supplied — the step stayed within its wall-clock
    budget.  Violations go through the usual :class:`GuardRail` policies:
    under ``"raise"`` they abort; under ``"record"``/``"degrade"`` the
    daemon sees ``check()`` return ``True`` and triggers a supervised
    restart from the journal.

    The wall clock is *injected* (e.g. ``time.monotonic`` from the
    daemon) rather than read here, so this module stays free of ambient
    time sources and tests can fake hangs deterministically.
    """

    #: Slack when comparing simulated time against the epoch target.
    _EPS_TIME = 1e-9

    def __init__(
        self,
        rail: GuardRail,
        *,
        stall_timeout_s: float = 30.0,
        clock=None,
    ) -> None:
        if stall_timeout_s <= 0:
            raise ValueError(
                f"stall_timeout_s must be positive, got {stall_timeout_s!r}"
            )
        self.rail = rail
        self.stall_timeout_s = stall_timeout_s
        self._clock = clock
        self.fires = 0
        self._begin_sim: Optional[float] = None
        self._begin_wall: Optional[float] = None

    def begin(self, sim_time: float) -> None:
        """Arm the watchdog for one epoch starting at ``sim_time``."""
        self._begin_sim = sim_time
        self._begin_wall = self._clock() if self._clock is not None else None

    def check(self, sim_time: float, target_time: float) -> bool:
        """Audit the completed step; returns whether any violation fired."""
        if self._begin_sim is None:
            raise RuntimeError("watchdog check() without begin()")
        fired = False
        if sim_time < self._begin_sim:
            fired = True
            self.fires += 1
            self.rail.violation(
                "service-monotonic",
                "stepper",
                sim_time,
                f"simulated clock ran backwards: {sim_time!r} < epoch start "
                f"{self._begin_sim!r}",
            )
        if sim_time + self._EPS_TIME < target_time:
            fired = True
            self.fires += 1
            self.rail.violation(
                "service-stall",
                "stepper",
                sim_time,
                f"epoch stepper stalled at t={sim_time!r} short of target "
                f"{target_time!r}",
            )
        if self._begin_wall is not None and self._clock is not None:
            elapsed = self._clock() - self._begin_wall
            if elapsed > self.stall_timeout_s:
                fired = True
                self.fires += 1
                self.rail.violation(
                    "service-stall",
                    "stepper",
                    sim_time,
                    f"epoch took {elapsed:.3g} s of wall time (budget "
                    f"{self.stall_timeout_s:.3g} s); hung stepper?",
                )
        self._begin_sim = None
        self._begin_wall = None
        return fired


def certified_cwnd_slack() -> float:
    """The cwnd-cap slack factor, derived from a verification certificate.

    ``repro verify`` proves (starvation-bound certificate) that MLTCP's
    aggressiveness stays within ``[F_min, F_max]``; additive increase is
    scaled by at most ``F_max``, and dup-ACK recovery inflation can
    legitimately double a window on top of that, so ``2 * F_max`` bounds
    honest growth (docs/VERIFICATION.md, "Derived bounds").  On paper
    constants this evaluates to the 4.0 the cap historically hard-coded —
    but now the number moves with the proof instead of with a comment.
    """
    from ..verify.certificates import certified_f_max

    return 2.0 * certified_f_max()


def bdp_cwnd_cap(
    bottleneck_bps: float,
    rtt_s: float,
    mss_bytes: int,
    queue_packets: int,
    slack: Optional[float] = None,
) -> float:
    """A deliberately loose cwnd ceiling in segments.

    One bandwidth-delay product plus the bottleneck buffer is the most a
    well-behaved flow can usefully keep in flight; ``slack`` covers
    slow-start overshoot, recovery inflation (dup-ACK window inflation
    can legitimately double the window) and MLTCP's F-scaling.  When not
    given, the slack comes from :func:`certified_cwnd_slack` — the
    proved aggressiveness range — rather than a hand-written constant.
    Anything beyond is runaway growth.
    """
    if bottleneck_bps <= 0 or rtt_s <= 0 or mss_bytes <= 0:
        raise ValueError(
            f"bottleneck_bps, rtt_s and mss_bytes must be positive, got "
            f"{bottleneck_bps!r}, {rtt_s!r}, {mss_bytes!r}"
        )
    if slack is None:
        slack = certified_cwnd_slack()
    bdp_segments = bottleneck_bps * rtt_s / (8.0 * mss_bytes)
    return slack * (bdp_segments + queue_packets) + 10.0


def install_packet_guards(
    sim: "Simulator",
    network: "Network",
    senders: Mapping[str, "TcpSender"],
    rail: GuardRail,
    *,
    interval: float = 0.005,
    max_cwnd: float = float("inf"),
    min_cwnd: float = 1.0,
) -> None:
    """Attach periodic invariant checks to a packet simulation.

    Every ``interval`` seconds of sim time a heartbeat event sweeps all
    senders (cwnd bounds, MLTCP tracker sanity when present) and all
    links (packet conservation).  The heartbeat re-arms only while other
    events are pending, so it never extends a finished run by more than
    one interval.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval!r}")

    def beat() -> None:
        now = sim.now
        for name in sorted(senders):
            sender = senders[name]
            check_cwnd_bounds(
                rail,
                name,
                sender.cc.cwnd,
                now=now,
                min_cwnd=min_cwnd,
                max_cwnd=max_cwnd,
            )
            mltcp = getattr(sender.cc, "mltcp", None)
            if mltcp is not None:
                check_tracker_sanity(rail, mltcp.tracker, now=now, flow=name)
        for key in sorted(network.links):
            check_link_conservation(rail, network.links[key], now=now)
        if sim.pending_events() > 0:
            sim.schedule(interval, beat)

    sim.schedule(interval, beat)
