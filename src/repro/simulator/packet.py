"""Packet model for the discrete-event simulator.

Segments carry byte-counted sequence numbers like real TCP, but every data
segment is exactly one MSS so that the congestion window can be expressed in
packets ("Following Linux's implementation … the congestion window (cwnd) is
expressed in packets", paper §3.1).  ACKs are pure (no piggybacked data).

Performance notes (docs/PERFORMANCE.md): :class:`Packet` is a ``__slots__``
class, not a dataclass — packet construction sits directly on the
per-segment hot path, and slots cut both allocation cost and attribute
access latency.  ``size_bytes``/``size_bits`` are precomputed at
construction instead of being recomputed properties.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..core.units import bits_from_bytes

__all__ = [
    "Packet",
    "DATA_HEADER_BYTES",
    "ACK_SIZE_BYTES",
]

#: TCP/IP header overhead carried by every data segment.
DATA_HEADER_BYTES = 40
#: Size of a pure ACK on the wire.
ACK_SIZE_BYTES = 40

_packet_ids = itertools.count()


class Packet:
    """One packet on the wire (data segment or pure ACK)."""

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

    def __init__(
        self,
        flow_id: str,
        src: str,
        dst: str,
        is_ack: bool,
        #: Data: sequence number of this segment (segment index, not bytes).
        #: ACK: cumulative acknowledgement (next expected segment index).
        seq: int,
        #: Payload bytes (0 for ACKs).
        payload_bytes: int,
        #: Simulation time the *original* transmission of this segment left
        #: the sender; used for RTT sampling (Karn's rule clears it on
        #: retransmit).
        sent_time: Optional[float] = None,
        #: True when this is a retransmission (Karn: no RTT sample).
        retransmitted: bool = False,
        #: ECN: sender marks capability; queue sets congestion-experienced.
        ecn_capable: bool = False,
        ecn_ce: bool = False,
        #: ECN echo bit on ACKs (receiver reflects CE back to the sender).
        ecn_echo: bool = False,
        #: Scheduling priority for priority queues (e.g. pFabric: remaining
        #: bytes; lower value = higher priority).
        priority: float = 0.0,
    ) -> None:
        if payload_bytes < 0:
            raise ValueError(
                f"payload_bytes must be non-negative, got {payload_bytes!r}"
            )
        if is_ack and payload_bytes != 0:
            raise ValueError("pure ACKs carry no payload")
        if not is_ack and payload_bytes == 0:
            raise ValueError("data segments must carry payload")
        if seq < 0:
            raise ValueError(f"seq must be non-negative, got {seq!r}")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.is_ack = is_ack
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.sent_time = sent_time
        self.retransmitted = retransmitted
        self.ecn_capable = ecn_capable
        self.ecn_ce = ecn_ce
        self.ecn_echo = ecn_echo
        self.priority = priority
        self.uid = next(_packet_ids)
        #: Wire size including headers (bytes / bits).
        self.size_bytes = ACK_SIZE_BYTES if is_ack else payload_bytes + DATA_HEADER_BYTES
        self.size_bits = bits_from_bytes(self.size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return (
            f"<{kind} {self.flow_id} {self.src}->{self.dst} seq={self.seq} "
            f"{self.payload_bytes}B>"
        )
