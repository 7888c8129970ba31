"""TCP connection machinery for the packet-level simulator.

:class:`TcpSender` and :class:`TcpReceiver` implement the transport the
paper's kernel module plugs into: MSS-sized segments, cumulative immediate
ACKs, duplicate-ACK fast retransmit with NewReno-style partial-ACK recovery,
and an RFC 6298 retransmission timer with Karn's rule and exponential
backoff.  Congestion control is pluggable via :class:`CongestionControl`
(mirroring Linux's pluggable congestion modules, which is exactly the hook
MLTCP uses — paper §3.2).

Windows are counted in *segments*, "following Linux's implementation …
the congestion window (cwnd) is expressed in packets" (§3.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional

from ..simulator.engine import DeadlineTimer, EventEntry, Simulator
from ..simulator.node import Host
from ..simulator.packet import Packet

__all__ = ["CongestionControl", "TcpSender", "TcpReceiver", "DEFAULT_MSS_BYTES"]

#: Default maximum segment size (payload bytes), the paper's MTU assumption.
DEFAULT_MSS_BYTES = 1460

#: Initial congestion window in segments (Linux default, RFC 6928).
INITIAL_CWND = 10.0

#: Minimum congestion window after any reduction.
MIN_CWND = 1.0


class CongestionControl(ABC):
    """Pluggable congestion-control algorithm.

    The algorithm owns ``cwnd`` (float, segments) and ``ssthresh``; the
    connection reads ``cwnd`` to clock transmissions and calls the hooks on
    protocol events.  Each ``on_ack`` calls :meth:`_observe` once and
    scales its window-increase step by :meth:`_ai_scale`: the two hooks
    Algorithm 1 plugs into (``repro.tcp.mltcp._MltcpMixin``).
    """

    #: Whether data packets should be marked ECN-capable.
    ecn_enabled: bool = False
    name: str = "cc"

    def __init__(self) -> None:
        self.cwnd: float = INITIAL_CWND
        self.ssthresh: float = float("inf")

    @abstractmethod
    def on_ack(self, newly_acked: int, conn: "TcpSender") -> None:
        """New data acknowledged (``newly_acked`` segments, ``num_acks``)."""

    def on_fast_retransmit(self, conn: "TcpSender") -> None:
        """Triple-duplicate-ACK loss: multiplicative decrease + recovery."""
        self.ssthresh = max(conn.flight_size() / 2.0, 2.0)
        self.cwnd = self.ssthresh + 3.0

    def on_dup_ack_in_recovery(self, conn: "TcpSender") -> None:
        """Window inflation for each further dup ACK during fast recovery."""
        self.cwnd += 1.0

    def on_partial_ack(self, newly_acked: int, conn: "TcpSender") -> None:
        """NewReno partial ACK: deflate by the amount acked, keep recovering."""
        self.cwnd = max(MIN_CWND, self.cwnd - newly_acked + 1.0)

    def on_recovery_exit(self, conn: "TcpSender") -> None:
        """Full ACK of the recovery point: deflate to ssthresh."""
        self.cwnd = max(MIN_CWND, self.ssthresh)

    def on_rto(self, conn: "TcpSender") -> None:
        """Retransmission timeout: collapse to one segment, slow start."""
        self.ssthresh = max(conn.flight_size() / 2.0, 2.0)
        self.cwnd = MIN_CWND

    def on_ecn_echo(self, echoed: int, total: int, conn: "TcpSender") -> None:
        """ECN feedback for one window (DCTCP-style algorithms override)."""

    def _observe(self, newly_acked: int, conn: "TcpSender") -> None:
        """Per-ACK observation hook (MLTCP feeds its iteration tracker)."""

    def _ai_scale(self, conn: "TcpSender") -> float:
        """Window-increase scale: 1 for the base algorithm, F(bytes_ratio)
        for MLTCP."""
        return 1.0

    def on_transfer_abort(self, conn: "TcpSender") -> None:
        """The application aborted mid-transfer (job kill/restart).

        Base algorithms carry no per-iteration state, so the default is a
        no-op; MLTCP variants override it to reset Algorithm 1's
        ``bytes_sent`` so the aborted iteration's progress cannot leak an
        aggressiveness advantage into the restarted one.
        """

    @property
    def in_slow_start(self) -> bool:
        """Whether the window is still below the slow-start threshold."""
        return self.cwnd < self.ssthresh


class TcpReceiver:
    """Receive side: in-order reassembly and cumulative ACK generation.

    ``delayed_ack`` enables RFC 1122-style ACK coalescing: an ACK is sent
    every ``delayed_ack`` in-order segments, or after ``delack_timeout``
    seconds, or immediately when a segment arrives out of order (so the
    sender's dup-ACK machinery keeps working).  Coalesced ACKs acknowledge
    multiple segments at once — exactly the cumulative-ACK case Algorithm 1
    handles with its ``num_acks`` term (paper §3.1: "a cumulative ack
    mechanism to acknowledge multiple in-flight packets with a single ack").
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: str,
        peer: str,
        delayed_ack: int = 1,
        delack_timeout: float = 500e-6,
    ) -> None:
        if delayed_ack < 1:
            raise ValueError(f"delayed_ack must be at least 1, got {delayed_ack!r}")
        if delack_timeout <= 0:
            raise ValueError(f"delack_timeout must be positive, got {delack_timeout!r}")
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.peer = peer
        self.delayed_ack = delayed_ack
        self.delack_timeout = delack_timeout
        self.recv_next = 0
        self._out_of_order: set[int] = set()
        self.acks_sent = 0
        self._unacked_segments = 0
        self._delack_timer: Optional[EventEntry] = None
        self._pending_echo = False
        self._pending_ts: Optional[float] = None
        self._pending_retransmitted = False
        host.register_flow(flow_id, self)

    def receive(self, packet: Packet) -> None:
        """Handle an arriving data segment; emit or schedule an ACK."""
        if packet.is_ack:
            raise RuntimeError(f"receiver for {self.flow_id} got an ACK: {packet!r}")
        in_order = packet.seq == self.recv_next
        if in_order:
            self.recv_next += 1
            while self.recv_next in self._out_of_order:
                self._out_of_order.discard(self.recv_next)
                self.recv_next += 1
        elif packet.seq > self.recv_next:
            self._out_of_order.add(packet.seq)
        # seq < recv_next: duplicate of delivered data; still ACK it.

        # Remember timestamp/ECN state for the (possibly coalesced) ACK.
        self._pending_echo = self._pending_echo or packet.ecn_ce
        self._pending_ts = packet.sent_time
        self._pending_retransmitted = packet.retransmitted

        if not in_order or self.delayed_ack == 1:
            # Out-of-order (or delack disabled): ACK immediately so the
            # sender sees duplicate ACKs without delay.
            self._send_ack()
            return
        self._unacked_segments += 1
        if self._unacked_segments >= self.delayed_ack:
            self._send_ack()
        elif self._delack_timer is None:
            self._delack_timer = self.sim.schedule(
                self.delack_timeout, self._on_delack_timeout
            )

    # -- internals ----------------------------------------------------------

    def _on_delack_timeout(self) -> None:
        self._delack_timer = None
        if self._unacked_segments > 0:
            self._send_ack()

    def _send_ack(self) -> None:
        if self._delack_timer is not None:
            self.sim.cancel(self._delack_timer)
            self._delack_timer = None
        self._unacked_segments = 0
        # The ACK echoes the newest data packet's original send time and
        # retransmission flag (RFC 1323 timestamps), so the sender can take
        # accurate RTT samples even across recovery episodes.
        ack = Packet.ack(
            self.flow_id,
            self.host.name,
            self.peer,
            self.recv_next,
            self._pending_ts,
            self._pending_retransmitted,
            self._pending_echo,
        )
        self._pending_echo = False
        self.acks_sent += 1
        self.host.send(ack)

    def resync(self, seq: int) -> None:
        """Jump the cumulative-ACK point to ``seq`` (restart handshake).

        Called when the peer sender aborts a transfer (job kill/restart):
        the fresh transfer's segments continue the sequence space at the
        sender's ``snd_nxt``, so any segments of the dead transfer still
        missing would otherwise leave a hole ``recv_next`` can never cross.
        Models the new connection a restarted worker would open, without
        re-registering flows.
        """
        if seq < self.recv_next:
            raise ValueError(
                f"{self.flow_id}: cannot resync backwards "
                f"({seq} < {self.recv_next})"
            )
        self.recv_next = seq
        self._out_of_order = {s for s in self._out_of_order if s > seq}
        self._unacked_segments = 0
        if self._delack_timer is not None:
            self.sim.cancel(self._delack_timer)
            self._delack_timer = None


class TcpSender:
    """Send side of one flow: window clocking, loss recovery, timers.

    The retransmission timer is a :class:`DeadlineTimer`: ACKs move its
    deadline without touching the event heap, and an RTO still fires
    exactly ``timeout`` after the last restart.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: str,
        peer: str,
        cc: CongestionControl,
        mss_bytes: int = DEFAULT_MSS_BYTES,
        min_rto: float = 2e-3,
        max_rto: float = 1.0,
        on_all_acked: Optional[Callable[[], None]] = None,
        slow_start_after_idle: bool = True,
    ) -> None:
        if mss_bytes <= 0:
            raise ValueError(f"mss_bytes must be positive, got {mss_bytes!r}")
        if min_rto <= 0 or max_rto < min_rto:
            raise ValueError(f"need 0 < min_rto <= max_rto, got {min_rto!r}, {max_rto!r}")
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.peer = peer
        self.cc = cc
        self.mss_bytes = mss_bytes
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.on_all_acked = on_all_acked
        self.slow_start_after_idle = slow_start_after_idle
        self._last_activity = 0.0

        # Sequence state (segment indices).
        self.snd_una = 0  # oldest unacknowledged
        self.snd_nxt = 0  # next new segment to send
        self.target = 0   # segments the application has asked to deliver

        # Loss recovery.
        self.dup_acks = 0
        self.in_recovery = False
        self.recover_point = 0

        # RTT estimation (RFC 6298).
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = 4 * min_rto
        self._rto_backoff = 1.0
        self._rto_timer = DeadlineTimer(sim, self._on_rto)

        #: Peer receiver, wired by the experiment assembly (packetlab) so an
        #: aborted transfer can resync the cumulative-ACK point — the
        #: simulation stand-in for the new connection a restarted worker
        #: opens.  Optional: without it, abort_transfer still works but any
        #: hole left by in-flight segments of the dead transfer would stall
        #: the next one.
        self.peer_rx: Optional[TcpReceiver] = None

        # Telemetry.
        self.segments_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.transfers_aborted = 0
        self.acked_bytes_log: list[tuple[float, int]] = []

        host.register_flow(flow_id, self)

    # -- application interface --------------------------------------------

    def send_bytes(self, nbytes: int) -> int:
        """Queue ``nbytes`` for delivery; returns the segments enqueued."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes!r}")
        if (
            self.slow_start_after_idle
            and self.flight_size() == 0
            and self.sim.now - self._last_activity > self.rto
        ):
            # Linux tcp_slow_start_after_idle: restart from the initial
            # window after an idle period (the compute phase), so a flow's
            # history does not carry an incumbency advantage across
            # iterations.
            self.cc.cwnd = min(self.cc.cwnd, INITIAL_CWND)
        segments = -(-nbytes // self.mss_bytes)  # ceil division
        self.target += segments
        self._try_send()
        return segments

    def abort_transfer(self) -> int:
        """Abandon everything queued or in flight; returns the bytes dropped.

        Used by job kill/restart fault injection: the dead worker's data
        will never be needed, so the sender forgets it — timers cancelled,
        recovery state cleared, the send point advanced past every in-flight
        segment — and the congestion window falls back to the initial
        window (fresh-connection semantics).  The peer receiver, when wired
        via :attr:`peer_rx`, is resynced to the new sequence point so lost
        segments of the aborted transfer cannot stall the next one.  The
        congestion algorithm's :meth:`CongestionControl.on_transfer_abort`
        hook fires last (MLTCP resets ``bytes_sent`` there).
        """
        aborted_bytes = max(0, (self.target - self.snd_una)) * self.mss_bytes
        self._rto_timer.cancel()
        self.in_recovery = False
        self.dup_acks = 0
        self._rto_backoff = 1.0
        # Everything up to snd_nxt is either delivered or abandoned; the
        # next transfer continues the sequence space from here.
        self.snd_una = self.snd_nxt
        self.target = self.snd_nxt
        self.cc.cwnd = min(self.cc.cwnd, INITIAL_CWND)
        self._last_activity = self.sim.now
        self.transfers_aborted += 1
        if self.peer_rx is not None:
            self.peer_rx.resync(self.snd_nxt)
        self.cc.on_transfer_abort(self)
        return aborted_bytes

    def bytes_outstanding(self) -> int:
        """Bytes queued or in flight but not yet acknowledged."""
        return (self.target - self.snd_una) * self.mss_bytes

    def all_acked(self) -> bool:
        """Whether everything the application queued has been acknowledged."""
        return self.snd_una >= self.target

    def flight_size(self) -> int:
        """Segments in flight (sent, not yet cumulatively acknowledged)."""
        return self.snd_nxt - self.snd_una

    @property
    def smoothed_rtt(self) -> Optional[float]:
        """Current SRTT estimate, or None before the first sample."""
        return self.srtt

    # -- packet handling ---------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Handle an arriving ACK."""
        if not packet.is_ack:
            raise RuntimeError(f"sender for {self.flow_id} got data: {packet!r}")
        ack = packet.seq
        if ack > self.snd_una:
            self._on_new_ack(ack, packet)
        elif ack == self.snd_una and self.flight_size() > 0:
            self._on_dup_ack()
        self._try_send()

    # -- internals ----------------------------------------------------------

    def _on_new_ack(self, ack: int, packet: Packet) -> None:
        newly_acked = ack - self.snd_una
        self._sample_rtt(packet)
        self.snd_una = ack
        if ack > self.snd_nxt:
            # After an RTO rewinds snd_nxt (go-back-N), segments still in
            # flight can be acknowledged past the rewound send point; accept
            # the evidence of delivery and jump forward.
            self.snd_nxt = ack
        self._rto_backoff = 1.0

        if self.in_recovery:
            if ack >= self.recover_point:
                self.in_recovery = False
                self.dup_acks = 0
                self.cc.on_recovery_exit(self)
            else:
                # NewReno partial ACK: retransmit the next hole immediately.
                self.cc.on_partial_ack(newly_acked, self)
                self._retransmit(self.snd_una)
        else:
            self.dup_acks = 0
            self.cc.on_ack(newly_acked, self)
        if packet.ecn_echo:
            self.cc.on_ecn_echo(1, 1, self)

        self.acked_bytes_log.append((self.sim.now, newly_acked * self.mss_bytes))
        self._last_activity = self.sim.now
        self._restart_rto_timer()
        if self.all_acked() and self.on_all_acked is not None and self.target > 0:
            self._rto_timer.cancel()
            self.on_all_acked()

    def _on_dup_ack(self) -> None:
        self.dup_acks += 1
        if self.in_recovery:
            self.cc.on_dup_ack_in_recovery(self)
        elif self.dup_acks == 3:
            self.in_recovery = True
            self.recover_point = self.snd_nxt
            self.fast_retransmits += 1
            self.cc.on_fast_retransmit(self)
            self._retransmit(self.snd_una)

    def _try_send(self) -> None:
        window = int(self.cc.cwnd)
        while self.snd_nxt < self.target and self.snd_nxt < self.snd_una + window:
            self._transmit(self.snd_nxt, retransmission=False)
            self.snd_nxt += 1
        if self.flight_size() > 0 and not self._rto_timer.armed:
            self._restart_rto_timer()

    def _transmit(self, seq: int, retransmission: bool) -> None:
        packet = Packet.data(
            self.flow_id,
            self.host.name,
            self.peer,
            seq,
            self.mss_bytes,
            self.sim.now,
            retransmission,
            self.cc.ecn_enabled,
            float(self.target - self.snd_una),
        )
        if retransmission:
            self.retransmissions += 1
        self.segments_sent += 1
        self.host.send(packet)

    def _retransmit(self, seq: int) -> None:
        self._transmit(seq, retransmission=True)
        self._restart_rto_timer()

    def _sample_rtt(self, ack_packet: Packet) -> None:
        """Timestamp-echo sampling with Karn's rule: the ACK carries the
        triggering data packet's original send time; retransmitted segments
        give no sample."""
        if ack_packet.retransmitted or ack_packet.sent_time is None:
            return
        sample = self.sim.now - ack_packet.sent_time
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(
            self.max_rto, max(self.min_rto, self.srtt + 4.0 * (self.rttvar or 0.0))
        )

    def _restart_rto_timer(self) -> None:
        if self.snd_nxt > self.snd_una:
            self._rto_timer.restart(min(self.max_rto, self.rto * self._rto_backoff))
        else:
            self._rto_timer.cancel()

    def _on_rto(self) -> None:
        if self.flight_size() <= 0:
            return
        self.timeouts += 1
        self.cc.on_rto(self)
        self.in_recovery = False
        self.dup_acks = 0
        self._rto_backoff = min(64.0, self._rto_backoff * 2.0)
        # Go-back-N: rewind the send point and retransmit the first hole.
        self.snd_nxt = self.snd_una + 1
        self._retransmit(self.snd_una)
        self._try_send()
