"""pFabric-style minimal transport for the packet-level simulator.

pFabric (Alizadeh et al., SIGCOMM '13) decouples flow scheduling from rate
control: switches keep tiny priority queues that transmit the packet of the
flow with the *least remaining bytes* first (and drop the most-remaining
packet on overflow), while end hosts run a deliberately minimal transport —
start at line rate with a fixed window, recover with timeouts, no additive
increase.  Pair :class:`PFabricSender` with
:class:`~repro.simulator.queues.PriorityQueue` on the bottleneck to model
it; the receiver side reuses :class:`~repro.tcp.base.TcpReceiver`.

This is the packet-granularity version of the fluid
:class:`~repro.fluid.allocation.SRPT` policy, used to cross-check the
paper's Figure 2(b) head-of-line-blocking argument.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..simulator.engine import DeadlineTimer, Simulator
from ..simulator.node import Host
from ..simulator.packet import Packet
from .base import DEFAULT_MSS_BYTES

__all__ = ["PFabricSender"]


class PFabricSender:
    """Fixed-window sender stamping pFabric priorities on every packet.

    ``priority`` is the flow's remaining byte count at transmit time, so the
    fabric serves the shortest remaining flow first.  Loss recovery is a
    simple per-flow retransmission timer with go-back-N, as in pFabric's
    minimal transport.  ACKs move the timer's deadline
    (:class:`~repro.simulator.engine.DeadlineTimer`): it expires ``rto``
    after the last ACK that advanced ``snd_una``.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: str,
        peer: str,
        window: int = 16,
        mss_bytes: int = DEFAULT_MSS_BYTES,
        rto: float = 3e-3,
        on_all_acked: Optional[Callable[[], None]] = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be positive, got {window!r}")
        if rto <= 0:
            raise ValueError(f"rto must be positive, got {rto!r}")
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.peer = peer
        self.window = window
        self.mss_bytes = mss_bytes
        self.rto = rto
        self.on_all_acked = on_all_acked

        self.snd_una = 0
        self.snd_nxt = 0
        self.target = 0
        self.segments_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.acked_bytes_log: list[tuple[float, int]] = []
        self._timer = DeadlineTimer(sim, self._on_timeout)
        host.register_flow(flow_id, self)

    # -- application interface ---------------------------------------------

    def send_bytes(self, nbytes: int) -> int:
        """Queue ``nbytes`` for delivery; returns segments enqueued."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes!r}")
        segments = -(-nbytes // self.mss_bytes)
        self.target += segments
        self._pump()
        return segments

    def all_acked(self) -> bool:
        """Whether everything queued has been acknowledged."""
        return self.snd_una >= self.target

    @property
    def smoothed_rtt(self) -> Optional[float]:
        """Always None: pFabric's minimal transport keeps no RTT state."""
        return None

    # -- packet handling ------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Handle an arriving cumulative ACK."""
        if not packet.is_ack:
            raise RuntimeError(f"pFabric sender {self.flow_id} got data: {packet!r}")
        if packet.seq > self.snd_una:
            newly = packet.seq - self.snd_una
            self.snd_una = packet.seq
            self.snd_nxt = max(self.snd_nxt, self.snd_una)
            self.acked_bytes_log.append((self.sim.now, newly * self.mss_bytes))
            self._restart_timer()
            if self.all_acked():
                # Only the ACK that acknowledges the last segment completes
                # the transfer: go-back-N resends segments the receiver has,
                # and their duplicate ACKs find everything acknowledged too.
                # Nothing is in flight, so _restart_timer has stopped the timer.
                if self.on_all_acked is not None:
                    self.on_all_acked()
                return
        self._pump()

    # -- internals --------------------------------------------------------------

    def _pump(self) -> None:
        while self.snd_nxt < self.target and self.snd_nxt < self.snd_una + self.window:
            self._transmit(self.snd_nxt)
            self.snd_nxt += 1
        if self.snd_nxt > self.snd_una and not self._timer.armed:
            self._timer.restart(self.rto)

    def _transmit(self, seq: int) -> None:
        remaining = (self.target - self.snd_una) * self.mss_bytes
        packet = Packet.data(
            self.flow_id,
            self.host.name,
            self.peer,
            seq,
            self.mss_bytes,
            self.sim.now,
            False,
            False,
            float(remaining),
        )
        self.segments_sent += 1
        self.host.send(packet)

    def _restart_timer(self) -> None:
        if self.snd_nxt > self.snd_una:
            self._timer.restart(self.rto)
        else:
            self._timer.cancel()

    def _on_timeout(self) -> None:
        if self.all_acked():
            return
        self.timeouts += 1
        self.retransmissions += 1
        # Go-back-N from the first unacknowledged segment.
        self.snd_nxt = self.snd_una
        self._pump()
