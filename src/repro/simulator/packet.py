"""Packet model for the discrete-event simulator.

Segments carry byte-counted sequence numbers like real TCP, but every data
segment is exactly one MSS so that the congestion window can be expressed in
packets ("Following Linux's implementation … the congestion window (cwnd) is
expressed in packets", paper §3.1).  ACKs are pure (no piggybacked data).

Performance notes (docs/PERFORMANCE.md): :class:`Packet` is a ``__slots__``
class, not a dataclass, and transports build every segment and ACK through
one of two positional constructors, :meth:`Packet.data` and
:meth:`Packet.ack`.  Each is one Python call that fills the slots of a
bare instance: no ``__init__`` frame, and no keyword arguments, which
CPython binds by matching each name against the parameter list.  Each
keeps only the checks its arguments can still fail, and
``size_bytes``/``size_bits`` are set at construction instead of being
recomputed properties.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from ..core.units import BITS_PER_BYTE, bits_from_bytes

__all__ = [
    "Packet",
    "DATA_HEADER_BYTES",
    "ACK_SIZE_BYTES",
]

#: TCP/IP header overhead carried by every data segment.
DATA_HEADER_BYTES = 40
#: Size of a pure ACK on the wire.
ACK_SIZE_BYTES = 40
_ACK_SIZE_BITS = bits_from_bytes(ACK_SIZE_BYTES)

_packet_ids = itertools.count()

#: ``object.__new__``: a bare instance, whose slots the constructors fill.
_new: Callable[[type], Any] = object.__new__


class Packet:
    """One packet on the wire (data segment or pure ACK).

    Build one with :meth:`data` or :meth:`ack`.  Fields:

    * ``seq`` — data: the segment's sequence number (segment index, not
      bytes); ACK: the cumulative acknowledgement (next expected segment).
    * ``payload_bytes`` — 0 for ACKs.
    * ``sent_time`` — when the *original* transmission of the segment left
      the sender, for RTT sampling; an ACK echoes its trigger's.
    * ``retransmitted`` — a retransmission (Karn: no RTT sample).
    * ``ecn_capable``/``ecn_ce`` — the sender marks capability, a queue or
      link sets congestion-experienced; ``ecn_echo`` — an ACK reflects CE.
    * ``priority`` — for priority queues (pFabric: remaining bytes; lower
      value = higher priority).
    * ``uid`` — one process-wide sequence; ``size_bytes``/``size_bits`` —
      wire size including headers.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "is_ack",
        "seq",
        "payload_bytes",
        "sent_time",
        "retransmitted",
        "ecn_capable",
        "ecn_ce",
        "ecn_echo",
        "priority",
        "uid",
        "size_bytes",
        "size_bits",
    )

    flow_id: str
    src: str
    dst: str
    is_ack: bool
    seq: int
    payload_bytes: int
    sent_time: Optional[float]
    retransmitted: bool
    ecn_capable: bool
    ecn_ce: bool
    ecn_echo: bool
    priority: float
    uid: int
    size_bytes: int
    size_bits: float

    @staticmethod
    def data(
        flow_id: str,
        src: str,
        dst: str,
        seq: int,
        payload_bytes: int,
        sent_time: Optional[float] = None,
        retransmitted: bool = False,
        ecn_capable: bool = False,
        priority: float = 0.0,
    ) -> Packet:
        """A data segment carrying ``payload_bytes`` (> 0) of segment ``seq``."""
        if payload_bytes <= 0 or seq < 0:
            if payload_bytes < 0:
                raise ValueError(
                    f"payload_bytes must be non-negative, got {payload_bytes!r}"
                )
            if payload_bytes == 0:
                raise ValueError("data segments must carry payload")
            raise ValueError(f"seq must be non-negative, got {seq!r}")
        packet: Packet = _new(Packet)
        packet.flow_id = flow_id
        packet.src = src
        packet.dst = dst
        packet.is_ack = False
        packet.seq = seq
        packet.payload_bytes = payload_bytes
        packet.sent_time = sent_time
        packet.retransmitted = retransmitted
        packet.ecn_capable = ecn_capable
        packet.ecn_ce = False
        packet.ecn_echo = False
        packet.priority = priority
        packet.uid = next(_packet_ids)
        size = payload_bytes + DATA_HEADER_BYTES
        packet.size_bytes = size
        packet.size_bits = size * BITS_PER_BYTE
        return packet

    @staticmethod
    def ack(
        flow_id: str,
        src: str,
        dst: str,
        seq: int,
        sent_time: Optional[float] = None,
        retransmitted: bool = False,
        ecn_echo: bool = False,
    ) -> Packet:
        """A pure cumulative ACK of every segment before ``seq``."""
        if seq < 0:
            raise ValueError(f"seq must be non-negative, got {seq!r}")
        packet: Packet = _new(Packet)
        packet.flow_id = flow_id
        packet.src = src
        packet.dst = dst
        packet.is_ack = True
        packet.seq = seq
        packet.payload_bytes = 0
        packet.sent_time = sent_time
        packet.retransmitted = retransmitted
        packet.ecn_capable = False
        packet.ecn_ce = False
        packet.ecn_echo = ecn_echo
        packet.priority = 0.0
        packet.uid = next(_packet_ids)
        packet.size_bytes = ACK_SIZE_BYTES
        packet.size_bits = _ACK_SIZE_BITS
        return packet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return (
            f"<{kind} {self.flow_id} {self.src}->{self.dst} seq={self.seq} "
            f"{self.payload_bytes}B>"
        )
