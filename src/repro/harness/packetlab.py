"""Packet-level experiment assembly: jobs on a dumbbell, end to end.

Builds the paper's testbed shape around :mod:`repro.simulator` and
:mod:`repro.tcp`: one sender/receiver host pair per job across the
bottleneck, one TCP flow per job driven by a
:class:`~repro.simulator.app.TrainingApp`.  A run returns a
:class:`PacketLabResult`, read the same way as the fluid simulators'
results: one :class:`~repro.workloads.job.IterationResult` per completed
iteration, per-round means and the applied fault log.

Scaled units: the paper's 50 Gbps / GB-scale iterations are mapped to
~1 Gbps links and MB-scale iterations so a Python discrete-event loop can
push enough packets; every ratio MLTCP depends on (bytes_ratio, comm/compute
fractions, demand/capacity) is preserved (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.schedule import FaultSchedule
    from ..guards.core import GuardRail

import numpy as np

from ..core.config import MLTCPConfig
from ..core.units import bps_from_gbps
from ..simulator.app import TrainingApp
from ..simulator.engine import Simulator
from ..simulator.queues import DropTailQueue
from ..simulator.topology import Network, build_dumbbell, build_fat_tree
from ..tcp.base import CongestionControl, TcpReceiver, TcpSender
from ..workloads.job import IterationResult, JobSpec, _IterationLog
from ..workloads.placement import FabricSpec, JobPlacement

__all__ = [
    "PacketLabResult",
    "run_packet_jobs",
    "run_packet_placements",
    "mltcp_config_for",
    "throughput_timeline",
]

CcFactory = Callable[[JobSpec], CongestionControl]


def mltcp_config_for(
    job: JobSpec, comp_time_fraction: float = 0.3, **overrides
) -> MLTCPConfig:
    """An :class:`MLTCPConfig` matching a job's iteration shape.

    ``TOTAL_BYTES`` is the job's per-iteration volume; ``COMP_TIME`` (the
    ACK-gap threshold) defaults to a fraction of the computation phase —
    far above any RTT, far below the real gap, as §3.2 prescribes.
    """
    if not 0 < comp_time_fraction <= 1:
        raise ValueError(
            f"comp_time_fraction must be in (0, 1], got {comp_time_fraction!r}"
        )
    params = {
        "total_bytes": job.comm_bytes,
        "comp_time": max(1e-4, comp_time_fraction * job.compute_time),
    }
    params.update(overrides)
    return MLTCPConfig(**params)


@dataclass
class PacketLabResult(_IterationLog):
    """One packet-level run: its iteration log, and the apps, senders and
    network that produced it.

    Read it like a fluid result — ``iterations_of``, ``iteration_times``,
    ``mean_iteration_by_round``, ``fault_log`` — plus the MLTCP
    ``degradation_episodes`` of its senders and per-job ``throughput``.
    """

    sim: Simulator
    network: Network
    jobs: tuple[JobSpec, ...]
    apps: dict[str, TrainingApp]
    senders: dict[str, TcpSender]
    receivers: dict[str, TcpReceiver] = field(default_factory=dict)
    iterations: list[IterationResult] = field(default_factory=list)
    #: Fault transitions the injector applied — strikes and reverts, with
    #: their times; empty without a schedule.
    fault_log: list[str] = field(default_factory=list)
    degradation_episodes: list[dict] = field(default_factory=list)

    def all_iteration_times(self, skip: int = 0) -> np.ndarray:
        """Pooled iteration durations of every job (skipping warm-up)."""
        return np.concatenate(
            [self.iteration_times(job.name)[skip:] for job in self.jobs]
        )

    def link_utilization(self) -> dict[str, float]:
        """Mean utilization of every link over the run."""
        return self.network.link_utilization()

    def throughput(self, job: str, dt: float = 0.005) -> tuple[np.ndarray, np.ndarray]:
        """Per-job goodput (Gbps) over time, from the sender's ACK log."""
        return throughput_timeline(
            self.senders[job].acked_bytes_log, self.sim.now, dt=dt
        )


def run_packet_jobs(
    jobs: Sequence[JobSpec],
    cc_factory: CcFactory,
    bottleneck_bps: float = 1e9,
    edge_bps: Optional[float] = None,
    queue_packets: int = 64,
    max_iterations: int = 40,
    until: Optional[float] = None,
    seed: int = 0,
    link_delay: float = 5e-6,
    faults: Optional["FaultSchedule"] = None,
    guards: Optional["GuardRail"] = None,
) -> PacketLabResult:
    """Run ``jobs`` over a dumbbell with per-job congestion control.

    ``cc_factory`` builds a fresh congestion-control instance per job —
    e.g. ``lambda job: MLTCPReno(mltcp_config_for(job))``.  ``faults``
    installs a :class:`~repro.faults.schedule.FaultSchedule` on the
    assembled testbed before the clock starts (docs/FAULTS.md); the
    default fault target is the dumbbell's ``sw_l->sw_r`` bottleneck.

    ``guards`` installs the runtime guardrail (docs/ROBUSTNESS.md): the
    engine's per-event monotonicity and stall checks, periodic
    cwnd/link-conservation/tracker heartbeats against a BDP-derived cwnd
    cap, and degradation reporting from every MLTCP sender.  ``None`` (the
    default) installs none of them; the detached monitor costs the engine
    one ``is not None`` test per event.
    """
    if not jobs:
        raise ValueError("need at least one job")
    sim = Simulator(monitor=guards)
    network = build_dumbbell(
        sim,
        n_pairs=len(jobs),
        bottleneck_bps=bottleneck_bps,
        edge_bps=edge_bps,
        link_delay=link_delay,
        bottleneck_queue=DropTailQueue(queue_packets),
    )
    # Dumbbell RTT: three hops each way (edge, bottleneck, edge).
    return _run_flows(
        sim, network, [(job, f"s{i}", f"r{i}") for i, job in enumerate(jobs)],
        cc_factory, max_iterations, until, seed, faults, guards,
        bottleneck=(bottleneck_bps, queue_packets, 6.0 * link_delay),
    )


def run_packet_placements(
    placements: Sequence[JobPlacement],
    spec: FabricSpec,
    cc_factory: CcFactory,
    max_iterations: int = 40,
    until: Optional[float] = None,
    seed: int = 0,
    link_delay: float = 5e-6,
    uplink_queue_capacity: int = 100,
    edge_queue_capacity: int = 256,
    faults: Optional["FaultSchedule"] = None,
    guards: Optional["GuardRail"] = None,
) -> PacketLabResult:
    """Run placed jobs over a multi-rack fat-tree fabric.

    The fabric-shaped sibling of :func:`run_packet_jobs`: builds
    ``spec``'s fat tree (:func:`~repro.simulator.topology.build_fat_tree`)
    and drives one TCP flow per placement from its source host to its
    destination host, so flows traverse the rack uplinks and spine
    downlinks the spec's deterministic ECMP rule assigns them — multiple
    bottlenecks with distinct competitor sets.  Per-link utilization is
    available afterwards via ``result.link_utilization()``.

    ``faults`` replays a :class:`~repro.faults.schedule.FaultSchedule` on
    the fabric, including fabric kinds (``spine_down`` etc.): the injector
    gets the spec, so failure-aware ECMP rerouting over the surviving
    spines is armed automatically.  ``guards`` installs the runtime
    guardrail (monitored engine loop, periodic heartbeats against the
    *uplink*-derived BDP cap, MLTCP degradation reporting, and — with
    faults — the route-liveness/reroute-conservation monitors after every
    fabric transition).
    """
    if not placements:
        raise ValueError("need at least one placed job")
    names = [p.job.name for p in placements]
    if len(set(names)) != len(names):
        raise ValueError(f"job names must be unique, got {names}")
    endpoints = [host for p in placements for host in (p.src, p.dst)]
    if len(set(endpoints)) != len(endpoints):
        raise ValueError(
            "placements must not share hosts (one flow endpoint per host), "
            f"got {endpoints}"
        )
    sim = Simulator(monitor=guards)
    network = build_fat_tree(
        sim,
        spec,
        link_delay=link_delay,
        uplink_queue_capacity=uplink_queue_capacity,
        edge_queue_capacity=edge_queue_capacity,
    )
    # Cross-rack RTT: four hops each way (edge, uplink, downlink, edge); the
    # oversubscribed uplink is the congestion point.
    return _run_flows(
        sim, network, [(p.job, p.src, p.dst) for p in placements],
        cc_factory, max_iterations, until, seed, faults, guards,
        bottleneck=(bps_from_gbps(spec.uplink_gbps), uplink_queue_capacity,
                    8.0 * link_delay),
        fabric=spec,
    )


def _run_flows(
    sim: Simulator,
    network: Network,
    flows: Sequence[tuple[JobSpec, str, str]],
    cc_factory: CcFactory,
    max_iterations: int,
    until: Optional[float],
    seed: int,
    faults: Optional["FaultSchedule"],
    guards: Optional["GuardRail"],
    bottleneck: tuple[float, int, float],
    fabric: Optional[FabricSpec] = None,
) -> PacketLabResult:
    """Drive one TCP flow per ``(job, src host, dst host)`` over ``network``.

    The assembly both entry points share: apps and transports, then the
    fault schedule, then the guardrail, then the run until ``until``
    (default: four ideal iterations of the slowest job per iteration).
    ``bottleneck`` is ``(rate_bps, queue_packets, propagation_rtt)`` of the
    link whose full buffer bounds the RTT, for the guardrail's BDP cap.
    """
    rng = np.random.default_rng(seed)
    apps: dict[str, TrainingApp] = {}
    senders: dict[str, TcpSender] = {}
    receivers: dict[str, TcpReceiver] = {}
    for job, src, dst in flows:
        src_host, dst_host = network.hosts[src], network.hosts[dst]
        cc = cc_factory(job)
        sender = TcpSender(sim, src_host, job.name, dst_host.name, cc)
        receiver = TcpReceiver(sim, dst_host, job.name, src_host.name)
        sender.peer_rx = receiver
        app = TrainingApp(sim, sender, job, max_iterations=max_iterations, rng=rng)
        app.start()
        apps[job.name] = app
        senders[job.name] = sender
        receivers[job.name] = receiver

    injected = None
    if faults is not None:
        from ..faults.packet import install_packet_faults

        injected = install_packet_faults(
            sim, network, faults, apps=apps, fabric=fabric, guards=guards
        )
    if guards is not None:
        from ..guards.watchdog import bdp_cwnd_cap, install_packet_guards
        from ..tcp.base import DEFAULT_MSS_BYTES

        for sender in senders.values():
            mltcp = getattr(sender.cc, "mltcp", None)
            if mltcp is not None:
                mltcp.attach_guardrail(guards)
        # At these delays the bottleneck's full buffer, not propagation,
        # dominates the RTT a window can see.
        rate_bps, queue_packets, propagation = bottleneck
        rtt = propagation + queue_packets * 1500 * 8.0 / rate_bps + 1e-4
        cap = bdp_cwnd_cap(rate_bps, rtt, DEFAULT_MSS_BYTES, queue_packets)
        install_packet_guards(sim, network, senders, guards, max_cwnd=cap)

    if until is None:
        longest = max(job.ideal_iteration_time for job, _, _ in flows)
        until = 4.0 * longest * max_iterations
    sim.run(until=until)
    trackers = [getattr(senders[name].cc, "mltcp", None) for name in sorted(senders)]
    return PacketLabResult(
        sim=sim,
        network=network,
        jobs=tuple(job for job, _, _ in flows),
        apps=apps,
        senders=senders,
        receivers=receivers,
        iterations=[it for app in apps.values() for it in app.iterations],
        fault_log=injected.descriptions() if injected is not None else [],
        degradation_episodes=[
            episode
            for mltcp in trackers
            if mltcp is not None
            for episode in mltcp.degradation_episodes
        ],
    )


def throughput_timeline(
    acked_log: Sequence[tuple[float, int]], end_time: float, dt: float = 0.005
) -> tuple[np.ndarray, np.ndarray]:
    """Bin an (time, acked_bytes) log into a goodput series in Gbps."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if end_time <= 0:
        raise ValueError(f"end_time must be positive, got {end_time!r}")
    bins = max(1, int(np.ceil(end_time / dt)))
    times = np.arange(bins) * dt
    series = np.zeros(bins)
    for t, nbytes in acked_log:
        index = min(bins - 1, int(t / dt))
        series[index] += nbytes * 8
    return times, series / dt / 1e9
