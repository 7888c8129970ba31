"""Topology builders: the paper's dumbbell and a fat tree.

The paper's testbed is "eight A100 GPU servers connected in a dumbbell
topology with a single bottleneck link" — each job places its two workers on
opposite sides of the bottleneck.  :func:`build_dumbbell` reproduces that
shape: N senders on the left, N receivers on the right, two switches, and a
single bottleneck link whose rate and queue the experiments control.

:func:`build_fat_tree` realizes a :class:`FabricSpec` two-tier fabric, the
one multi-rack topology both simulators share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from ..workloads.placement import FabricSpec
from .engine import Simulator
from .link import Link
from .node import Host, Node, Switch
from .queues import DropTailQueue, QueueDiscipline

__all__ = [
    "Network",
    "RoutingProvider",
    "build_dumbbell",
    "build_fat_tree",
]


class RoutingProvider(Protocol):
    """Anything that can answer "what is the current path src -> dst?".

    ``None`` means no path currently survives.  Implemented by
    :class:`repro.faults.routing.FabricRoutingState`; the indirection keeps
    the simulator layer free of fault-subsystem imports.
    """

    def path_nodes(self, src: str, dst: str) -> Optional[tuple[str, ...]]:
        ...


@dataclass
class Network:
    """A wired-up topology: nodes, links and the simulator that drives them."""

    sim: Simulator
    hosts: dict[str, Host] = field(default_factory=dict)
    switches: dict[str, Switch] = field(default_factory=dict)
    links: dict[tuple[str, str], Link] = field(default_factory=dict)
    #: Every path programmed via :meth:`install_route`, keyed by
    #: ``(src_host, dst_host)`` — the packet-side ground truth the ECMP
    #: determinism tests compare against the fluid side's ``path_nodes``.
    routes: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)

    def node(self, name: str) -> Node:
        """Look up a host or switch by name."""
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise KeyError(f"no node named {name!r}")

    def link(self, src: str, dst: str) -> Link:
        """Look up the unidirectional link ``src -> dst``."""
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src} -> {dst}") from None

    def add_host(self, name: str) -> Host:
        """Create and register a host."""
        if name in self.hosts or name in self.switches:
            raise ValueError(f"node {name!r} already exists")
        host = Host(name)
        self.hosts[name] = host
        return host

    def add_switch(self, name: str) -> Switch:
        """Create and register a switch."""
        if name in self.hosts or name in self.switches:
            raise ValueError(f"node {name!r} already exists")
        switch = Switch(name)
        self.switches[name] = switch
        return switch

    def add_link(
        self,
        src: str,
        dst: str,
        rate_bps: float,
        delay: float,
        queue: Optional[QueueDiscipline] = None,
        random_loss: float = 0.0,
        loss_rng: Optional[np.random.Generator] = None,
    ) -> Link:
        """Create the unidirectional link ``src -> dst`` and attach it."""
        if (src, dst) in self.links:
            raise ValueError(f"link {src} -> {dst} already exists")
        link = Link(
            self.sim,
            name=f"{src}->{dst}",
            rate_bps=rate_bps,
            delay=delay,
            queue=queue,
            random_loss=random_loss,
            loss_rng=loss_rng,
        )
        self.node(src).attach_outgoing(dst, link)
        link.connect(self.node(dst).receive_packet)
        self.links[(src, dst)] = link
        return link

    def install_route(self, src_host: str, dst_host: str, path: list[str]) -> None:
        """Program per-hop next-hop entries along ``path`` (node names)."""
        if path[0] != src_host or path[-1] != dst_host:
            raise ValueError(
                f"path must run {src_host} -> {dst_host}, got {path}"
            )
        for intermediate in path[1:-1]:
            if intermediate not in self.switches:
                raise ValueError(
                    f"intermediate node {intermediate!r} is not a switch; "
                    "hosts cannot forward transit traffic"
                )
        for here, nxt in zip(path, path[1:]):
            node = self.node(here)
            # Every node a Network creates is a Host or a Switch; the base
            # Node has no routing table, so narrow before set_route.
            assert isinstance(node, (Host, Switch))
            node.set_route(dst_host, nxt)
        self.routes[(src_host, dst_host)] = tuple(path)

    def apply_routing(self, routing: "RoutingProvider") -> int:
        """Reinstall every installed route whose current path changed.

        ``routing`` is any provider with a ``path_nodes(src, dst)`` method —
        in practice :class:`repro.faults.routing.FabricRoutingState`, which
        recomputes ECMP over the surviving spines after a fabric fault.
        Pairs whose provider path is ``None`` (no surviving path) keep their
        previously installed route: their packets blackhole at the severed
        link until a reversion restores connectivity and this method runs
        again.  Returns the number of routes reinstalled, and is iteration-
        order deterministic (sorted host pairs) so reruns reroute
        identically.
        """
        rerouted = 0
        for src, dst in sorted(self.routes):
            path = routing.path_nodes(src, dst)
            if path is not None and tuple(path) != self.routes[(src, dst)]:
                self.install_route(src, dst, list(path))
                rerouted += 1
        return rerouted

    def link_utilization(self, elapsed: Optional[float] = None) -> dict[str, float]:
        """Mean utilization of every link over ``elapsed`` seconds.

        Utilization is ``bits_sent / (rate * elapsed)`` — the fraction of
        the link's capacity the run actually used.  ``elapsed`` defaults to
        the simulator clock; links are keyed by their ``"src->dst"`` name,
        sorted, so reports are deterministic.
        """
        seconds = self.sim.now if elapsed is None else elapsed
        if elapsed is not None and elapsed <= 0:
            raise ValueError(f"elapsed must be positive, got {elapsed!r}")
        return {
            link.name: (
                link.bits_sent / (link.rate_bps * seconds) if seconds > 0 else 0.0
            )
            for _key, link in sorted(self.links.items())
        }


def build_dumbbell(
    sim: Simulator,
    n_pairs: int,
    bottleneck_bps: float,
    edge_bps: Optional[float] = None,
    link_delay: float = 5e-6,
    bottleneck_queue: Optional[QueueDiscipline] = None,
    edge_queue_capacity: int = 256,
    bottleneck_random_loss: float = 0.0,
    loss_seed: int = 0,
) -> Network:
    """The paper's testbed shape: ``n_pairs`` sender/receiver host pairs.

    Hosts ``s0..s{n-1}`` connect to switch ``sw_l``; ``r0..r{n-1}`` to
    ``sw_r``; the ``sw_l -> sw_r`` link is the bottleneck (data direction)
    and ``sw_r -> sw_l`` carries the ACK stream.  Edge links default to 4x
    the bottleneck so only the middle link can congest, matching the paper's
    single-bottleneck assumption.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be positive, got {n_pairs!r}")
    if bottleneck_bps <= 0:
        raise ValueError(f"bottleneck_bps must be positive, got {bottleneck_bps!r}")
    if edge_bps is None:
        edge_bps = 4.0 * bottleneck_bps

    network = Network(sim=sim)
    network.add_switch("sw_l")
    network.add_switch("sw_r")
    loss_rng = np.random.default_rng(loss_seed)
    if bottleneck_queue is None:
        bottleneck_queue = DropTailQueue(capacity_packets=100)
    network.add_link(
        "sw_l",
        "sw_r",
        bottleneck_bps,
        link_delay,
        queue=bottleneck_queue,
        random_loss=bottleneck_random_loss,
        loss_rng=loss_rng,
    )
    network.add_link(
        "sw_r",
        "sw_l",
        bottleneck_bps,
        link_delay,
        queue=DropTailQueue(capacity_packets=1024),
    )

    for i in range(n_pairs):
        sender, receiver = f"s{i}", f"r{i}"
        network.add_host(sender)
        network.add_host(receiver)
        for a, b in ((sender, "sw_l"), ("sw_l", sender), (receiver, "sw_r"), ("sw_r", receiver)):
            network.add_link(
                a, b, edge_bps, link_delay, queue=DropTailQueue(edge_queue_capacity)
            )
        network.install_route(sender, receiver, [sender, "sw_l", "sw_r", receiver])
        network.install_route(receiver, sender, [receiver, "sw_r", "sw_l", sender])
    return network


def build_fat_tree(
    sim: Simulator,
    spec: FabricSpec,
    link_delay: float = 5e-6,
    uplink_queue_capacity: int = 100,
    edge_queue_capacity: int = 256,
) -> Network:
    """The packet-side realization of a :class:`FabricSpec` fat-tree.

    One switch per rack (``rack{i}``) and spine (``spine{k}``), hosts
    ``h{rack}_{index}`` attached at ``spec.host_gbps``, and every
    rack<->spine pair wired at ``spec.uplink_gbps`` — the oversubscribed
    links.  Rates and paths come from the spec itself
    (:meth:`FabricSpec.capacities_gbps`, :meth:`FabricSpec.path_nodes`),
    so a fluid run over the same spec's capacity map shares this fabric's
    exact capacity model and routes.
    """
    network = Network(sim=sim)
    for spine in range(spec.n_spines):
        network.add_switch(spec.spine_name(spine))
    for rack in range(spec.n_racks):
        rack_name = spec.rack_name(rack)
        network.add_switch(rack_name)
        for spine in range(spec.n_spines):
            spine_name = spec.spine_name(spine)
            for a, b in ((rack_name, spine_name), (spine_name, rack_name)):
                network.add_link(
                    a, b, spec.uplink_gbps * 1e9, link_delay,
                    queue=DropTailQueue(uplink_queue_capacity),
                )
        for index in range(spec.hosts_per_rack):
            host_name = spec.host_name(rack, index)
            network.add_host(host_name)
            for a, b in ((host_name, rack_name), (rack_name, host_name)):
                network.add_link(
                    a, b, spec.host_gbps * 1e9, link_delay,
                    queue=DropTailQueue(edge_queue_capacity),
                )

    for src in spec.host_names():
        for dst in spec.host_names():
            if dst == src:
                continue
            network.install_route(src, dst, list(spec.path_nodes(src, dst)))
    return network

