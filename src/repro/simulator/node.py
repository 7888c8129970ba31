"""Network nodes: hosts (transport endpoints) and output-queued switches."""

from __future__ import annotations

from typing import Protocol

from .link import Link
from .packet import Packet

__all__ = ["PacketSink", "Node", "Host", "Switch"]


class PacketSink(Protocol):
    """Anything that can accept a delivered packet (e.g. a TCP connection)."""

    def receive(self, packet: Packet) -> None:
        """Consume one delivered packet."""
        ...


class Node:
    """Common behaviour: named, owns outgoing links keyed by neighbour."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.links: dict[str, Link] = {}

    def attach_outgoing(self, neighbour: str, link: Link) -> None:
        """Register the outgoing link towards ``neighbour``."""
        if neighbour in self.links:
            raise ValueError(f"{self.name}: link to {neighbour} already attached")
        self.links[neighbour] = link

    def receive_packet(self, packet: Packet) -> None:
        """Handle a packet arriving at this node (terminate or forward)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """End host: sources packets from transports, demuxes arrivals by flow."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._flows: dict[str, PacketSink] = {}
        self._next_hop: dict[str, str] = {}

    def register_flow(self, flow_id: str, sink: PacketSink) -> None:
        """Demux arriving packets of ``flow_id`` to ``sink``."""
        if flow_id in self._flows:
            raise ValueError(f"{self.name}: flow {flow_id} already registered")
        self._flows[flow_id] = sink

    def set_route(self, dst: str, neighbour: str) -> None:
        """Packets for host ``dst`` leave via the link to ``neighbour``."""
        if neighbour not in self.links:
            raise ValueError(f"{self.name}: no link to {neighbour}")
        self._next_hop[dst] = neighbour

    def send(self, packet: Packet) -> None:
        """Emit a locally generated packet toward its destination."""
        neighbour = self._next_hop.get(packet.dst)
        if neighbour is None:
            raise RuntimeError(f"{self.name}: no route to {packet.dst}")
        self.links[neighbour].send(packet)

    def receive_packet(self, packet: Packet) -> None:
        """Handle a packet that terminated at this host."""
        sink = self._flows.get(packet.flow_id)
        if sink is None:
            raise RuntimeError(
                f"{self.name}: no flow {packet.flow_id!r} registered for {packet!r}"
            )
        sink.receive(packet)


class Switch(Node):
    """Output-queued switch with static destination-based forwarding."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._next_hop: dict[str, str] = {}
        self.packets_forwarded = 0

    def set_route(self, dst: str, neighbour: str) -> None:
        """Packets for host ``dst`` are forwarded over the link to ``neighbour``."""
        if neighbour not in self.links:
            raise ValueError(f"{self.name}: no link to {neighbour}")
        self._next_hop[dst] = neighbour

    def receive_packet(self, packet: Packet) -> None:
        """Forward a transiting packet toward its destination host."""
        neighbour = self._next_hop.get(packet.dst)
        if neighbour is None:
            raise RuntimeError(f"{self.name}: no route to {packet.dst}")
        self.packets_forwarded += 1
        self.links[neighbour].send(packet)
