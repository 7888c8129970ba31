"""Output queue disciplines for links and switches.

Three disciplines cover the substrates the paper's world assumes:

* :class:`DropTailQueue` — the commodity default; TCP Reno's loss signal.
* :class:`EcnQueue` — DCTCP-style step marking: packets are marked
  congestion-experienced when the instantaneous queue exceeds threshold K.
* :class:`PriorityQueue` — pFabric-style: dequeue the lowest-priority-value
  packet first, drop the highest-priority-value packet when full.
"""

from __future__ import annotations

import heapq
import itertools
from abc import ABC, abstractmethod
from collections import deque
from typing import Optional

from .packet import Packet

__all__ = ["QueueDiscipline", "DropTailQueue", "EcnQueue", "PriorityQueue"]


class QueueDiscipline(ABC):
    """A bounded packet buffer attached to a link's transmitter."""

    def __init__(self, capacity_packets: int) -> None:
        if capacity_packets < 1:
            raise ValueError(
                f"capacity_packets must be positive, got {capacity_packets!r}"
            )
        self.capacity_packets = capacity_packets
        self.drops = 0
        self.enqueued = 0

    @abstractmethod
    def push(self, packet: Packet) -> bool:
        """Accept or drop ``packet``.  Returns True when accepted."""

    @abstractmethod
    def pop(self) -> Optional[Packet]:
        """Remove and return the next packet to transmit, or None if empty."""

    @abstractmethod
    def __len__(self) -> int:
        """Packets currently buffered."""

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets dropped so far."""
        offered = self.enqueued + self.drops
        return self.drops / offered if offered else 0.0


class DropTailQueue(QueueDiscipline):
    """FIFO; arrivals beyond capacity are dropped."""

    def __init__(self, capacity_packets: int) -> None:
        super().__init__(capacity_packets)
        self._buffer: deque[Packet] = deque()

    def push(self, packet: Packet) -> bool:
        """FIFO admit; tail-drop at capacity."""
        if len(self._buffer) >= self.capacity_packets:
            self.drops += 1
            return False
        self._buffer.append(packet)
        self.enqueued += 1
        return True

    def admit_idle(self, packet: Packet) -> bool:
        """Admit ``packet`` to an empty buffer whose link starts it at once.

        Counts what :meth:`push` then :meth:`pop` would, and returns True
        when accepted.  An empty drop-tail buffer never drops
        (``capacity_packets >= 1``) and an empty :class:`EcnQueue` never
        marks (``mark_threshold > 0``), so the two steps reduce to one
        counter.  A subclass whose ``push`` can refuse or alter a packet
        entering an empty buffer must override this.
        """
        self.enqueued += 1
        return True

    def pop(self) -> Optional[Packet]:
        """Dequeue the oldest buffered packet."""
        return self._buffer.popleft() if self._buffer else None

    def buffered(self) -> tuple[Packet, ...]:
        """Snapshot of the buffer in FIFO order (for link burst planning)."""
        return tuple(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class EcnQueue(DropTailQueue):
    """Drop-tail FIFO with DCTCP step marking at threshold ``mark_threshold``.

    An arriving ECN-capable packet is marked CE when the queue it joins
    already holds at least ``mark_threshold`` packets; non-capable packets
    are simply dropped at capacity as usual.
    """

    def __init__(self, capacity_packets: int, mark_threshold: int) -> None:
        super().__init__(capacity_packets)
        if not 0 < mark_threshold <= capacity_packets:
            raise ValueError(
                f"mark_threshold must be in (0, capacity], got {mark_threshold!r}"
            )
        self.mark_threshold = mark_threshold
        self.marks = 0

    def push(self, packet: Packet) -> bool:
        """Admit like drop-tail, CE-marking above the threshold."""
        if packet.ecn_capable and len(self._buffer) >= self.mark_threshold:
            packet.ecn_ce = True
            self.marks += 1
        return super().push(packet)


class PriorityQueue(QueueDiscipline):
    """pFabric-style priority buffer.

    ``Packet.priority`` is "remaining flow bytes": the *smallest* value is
    transmitted first, and when the buffer is full an arriving packet with a
    smaller priority value evicts the buffered packet with the largest one.
    Ties break by arrival order (FIFO within a priority).
    """

    def __init__(self, capacity_packets: int) -> None:
        super().__init__(capacity_packets)
        self._heap: list[tuple[float, int, Packet]] = []
        self._counter = itertools.count()

    def push(self, packet: Packet) -> bool:
        """Admit; when full, evict the worst-priority buffered packet."""
        if len(self._heap) >= self.capacity_packets:
            worst_index = max(
                range(len(self._heap)), key=lambda i: (self._heap[i][0], -self._heap[i][1])
            )
            worst_priority, _seq, _pkt = self._heap[worst_index]
            if packet.priority >= worst_priority:
                self.drops += 1
                return False
            # Evict the worst buffered packet to admit the better one.
            self._heap[worst_index] = self._heap[-1]
            self._heap.pop()
            heapq.heapify(self._heap)
            self.drops += 1
        heapq.heappush(self._heap, (packet.priority, next(self._counter), packet))
        self.enqueued += 1
        return True

    def pop(self) -> Optional[Packet]:
        """Dequeue the best-priority (lowest value) packet."""
        if not self._heap:
            return None
        _priority, _seq, packet = heapq.heappop(self._heap)
        return packet

    def __len__(self) -> int:
        return len(self._heap)
