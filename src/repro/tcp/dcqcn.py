"""Simplified DCQCN rate-based congestion control + MLTCP-DCQCN.

The paper's technique applies to "congestion window (or sending rate)"
algorithms; DCQCN is the canonical rate-based datacenter CC (RoCE).  This
module provides a paced :class:`RateSender` driven by a
:class:`DcqcnController`:

* ECN marks echoed by the receiver act as CNPs: ``alpha`` rises and the
  current rate is cut by ``alpha/2`` (at most once per ``cnp_interval``).
* A periodic timer raises the rate through DCQCN's fast-recovery stages
  (binary approach to the target rate) followed by additive increase.
* :class:`MltcpDcqcnController` scales the additive-increase step ``R_AI``
  by ``F(bytes_ratio)`` — the rate-based analogue of Eq. 1 — from the same
  :class:`~repro.tcp.mltcp.MltcpState` the window-based MLTCP-X use, so it
  degrades to plain DCQCN while the tracker distrusts its estimate.

Simplifications: the fabric is assumed lossless for rate-based flows (as
RoCE/PFC provides); byte counters replace per-QP hardware state; timer
periods are parameters rather than silicon constants.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.config import MLTCPConfig
from ..simulator.engine import EventEntry, Simulator
from ..simulator.node import Host
from ..simulator.packet import Packet
from .base import DEFAULT_MSS_BYTES
from .mltcp import MltcpState

__all__ = ["DcqcnController", "MltcpDcqcnController", "RateSender"]


class DcqcnController:
    """DCQCN rate state machine (alpha, target/current rate, stages)."""

    name = "dcqcn"

    def __init__(
        self,
        line_rate_bps: float,
        rate_ai_bps: float | None = None,
        min_rate_bps: float | None = None,
        g: float = 1.0 / 16.0,
        fast_recovery_stages: int = 3,
    ) -> None:
        if line_rate_bps <= 0:
            raise ValueError(f"line_rate_bps must be positive, got {line_rate_bps!r}")
        self.line_rate_bps = line_rate_bps
        self.rate_ai_bps = rate_ai_bps if rate_ai_bps is not None else line_rate_bps / 20.0
        self.min_rate_bps = min_rate_bps if min_rate_bps is not None else line_rate_bps / 500.0
        if not 0 < g <= 1:
            raise ValueError(f"g must be in (0, 1], got {g!r}")
        self.g = g
        self.fast_recovery_stages = fast_recovery_stages
        self.alpha = 1.0
        self.current_rate_bps = line_rate_bps
        self.target_rate_bps = line_rate_bps
        self._stage = 0
        self.congestion_events = 0

    def on_congestion(self) -> None:
        """One CNP: raise alpha, remember the target, cut the rate."""
        self.alpha = (1.0 - self.g) * self.alpha + self.g
        self.target_rate_bps = self.current_rate_bps
        self.current_rate_bps = max(
            self.min_rate_bps, self.current_rate_bps * (1.0 - self.alpha / 2.0)
        )
        self._stage = 0
        self.congestion_events += 1

    def on_alpha_timer(self) -> None:
        """Periodic alpha decay while no CNPs arrive."""
        self.alpha = (1.0 - self.g) * self.alpha

    def on_rate_timer(self) -> None:
        """Periodic rate increase: fast recovery, then additive increase."""
        self._stage += 1
        if self._stage > self.fast_recovery_stages:
            self.target_rate_bps = min(
                self.line_rate_bps, self.target_rate_bps + self._ai_step()
            )
        self.current_rate_bps = min(
            self.line_rate_bps,
            0.5 * (self.current_rate_bps + self.target_rate_bps),
        )

    def observe_delivery(self, newly_acked: int, conn: "RateSender") -> None:
        """``newly_acked`` segments of ``conn`` delivered (MLTCP feeds its
        tracker here)."""

    def _ai_step(self) -> float:
        """Additive-increase step; MLTCP-DCQCN scales this by F."""
        return self.rate_ai_bps


class MltcpDcqcnController(DcqcnController):
    """DCQCN with the additive-increase step scaled by ``F(bytes_ratio)``."""

    name = "mltcp-dcqcn"

    def __init__(
        self,
        line_rate_bps: float,
        config: MLTCPConfig | None = None,
        rate_ai_bps: float | None = None,
        min_rate_bps: float | None = None,
        g: float = 1.0 / 16.0,
        fast_recovery_stages: int = 3,
    ) -> None:
        super().__init__(
            line_rate_bps,
            rate_ai_bps=rate_ai_bps,
            min_rate_bps=min_rate_bps,
            g=g,
            fast_recovery_stages=fast_recovery_stages,
        )
        self.mltcp = MltcpState(config)

    def observe_delivery(self, newly_acked: int, conn: "RateSender") -> None:
        """Algorithm 1 lines 7–17 for the newly delivered segments."""
        self.mltcp.observe_ack(newly_acked, conn)

    def _ai_step(self) -> float:
        return self.mltcp.aggressiveness() * self.rate_ai_bps


class RateSender:
    """Paced, rate-controlled sender (models an RoCE QP over the fabric).

    Emits MSS-sized segments spaced by ``size / current_rate``; the receiver
    ACKs cumulatively and echoes ECN marks, which drive the controller.
    Assumes a lossless path (provision the queue accordingly).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: str,
        peer: str,
        controller: DcqcnController,
        mss_bytes: int = DEFAULT_MSS_BYTES,
        on_all_acked: Optional[Callable[[], None]] = None,
        alpha_timer: float = 500e-6,
        rate_timer: float = 1e-3,
        cnp_interval: float = 50e-6,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.peer = peer
        self.controller = controller
        self.mss_bytes = mss_bytes
        self.on_all_acked = on_all_acked
        self.alpha_timer = alpha_timer
        self.rate_timer = rate_timer
        self.cnp_interval = cnp_interval

        self.snd_nxt = 0
        self.snd_una = 0
        self.target = 0
        self.segments_sent = 0
        self._emitting = False
        self._last_cnp_time = -float("inf")
        self._alpha_handle: Optional[EventEntry] = None
        self._rate_handle: Optional[EventEntry] = None
        self._srtt: Optional[float] = None
        self._send_times: dict[int, float] = {}
        host.register_flow(flow_id, self)

    # -- application interface ---------------------------------------------

    def send_bytes(self, nbytes: int) -> int:
        """Queue ``nbytes`` for paced transmission; returns segments."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes!r}")
        segments = -(-nbytes // self.mss_bytes)
        self.target += segments
        self._start_timers()
        self._kick_pacing()
        return segments

    def all_acked(self) -> bool:
        """Whether everything queued has been acknowledged."""
        return self.snd_una >= self.target

    @property
    def smoothed_rtt(self) -> Optional[float]:
        """Current SRTT estimate, or None before the first sample."""
        return self._srtt

    # -- packet handling ----------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Handle an arriving ACK (delivery accounting + CNP handling)."""
        if not packet.is_ack:
            raise RuntimeError(f"rate sender for {self.flow_id} got data: {packet!r}")
        ack = packet.seq
        if ack > self.snd_una:
            newly = ack - self.snd_una
            sent = self._send_times.pop(ack - 1, None)
            if sent is not None:
                sample = self.sim.now - sent
                self._srtt = sample if self._srtt is None else 0.875 * self._srtt + 0.125 * sample
            for seq in range(self.snd_una, ack - 1):
                self._send_times.pop(seq, None)
            self.snd_una = ack
            self.controller.observe_delivery(newly, self)
        if packet.ecn_echo and self.sim.now - self._last_cnp_time >= self.cnp_interval:
            self._last_cnp_time = self.sim.now
            self.controller.on_congestion()
        if self.all_acked() and self.target > 0:
            self._stop_timers()
            if self.on_all_acked is not None:
                self.on_all_acked()

    # -- internals ------------------------------------------------------------

    def _kick_pacing(self) -> None:
        if not self._emitting and self.snd_nxt < self.target:
            self._emitting = True
            self._emit()

    def _emit(self) -> None:
        if self.snd_nxt >= self.target:
            self._emitting = False
            return
        packet = Packet.data(
            self.flow_id,
            self.host.name,
            self.peer,
            self.snd_nxt,
            self.mss_bytes,
            self.sim.now,
            False,
            True,
        )
        self._send_times[self.snd_nxt] = self.sim.now
        self.snd_nxt += 1
        self.segments_sent += 1
        self.host.send(packet)
        gap = packet.size_bits / self.controller.current_rate_bps
        self.sim.schedule(gap, self._emit)

    def _start_timers(self) -> None:
        if self._alpha_handle is None:
            self._alpha_handle = self.sim.schedule(self.alpha_timer, self._on_alpha)
        if self._rate_handle is None:
            self._rate_handle = self.sim.schedule(self.rate_timer, self._on_rate)

    def _stop_timers(self) -> None:
        if self._alpha_handle is not None:
            self.sim.cancel(self._alpha_handle)
            self._alpha_handle = None
        if self._rate_handle is not None:
            self.sim.cancel(self._rate_handle)
            self._rate_handle = None

    def _on_alpha(self) -> None:
        self.controller.on_alpha_timer()
        self._alpha_handle = self.sim.schedule(self.alpha_timer, self._on_alpha)

    def _on_rate(self) -> None:
        self.controller.on_rate_timer()
        self._rate_handle = self.sim.schedule(self.rate_timer, self._on_rate)
