"""Swift-style delay-based congestion control + MLTCP-Swift.

Swift (Kumar et al., SIGCOMM '20) keeps the RTT near a target delay:
below target the window grows additively, above target it is reduced
multiplicatively in proportion to the excess delay (at most once per RTT).
It is the modern datacenter representative of the delay-based family the
paper's related work cites (TIMELY, DX, Vegas); MLTCP-Swift scales the
additive-increase step by ``F(bytes_ratio)``, exactly like MLTCP-Reno does
for loss-based AIMD (§6: "other congestion control schemes are augmented in
a similar way").

Simplifications vs the paper's Swift: a single fixed target delay (no
topology-scaled term), no pacing below cwnd = 1, loss handling inherited
from the base class.
"""

from __future__ import annotations

from .base import CongestionControl, MIN_CWND, TcpSender
from .mltcp import _MltcpMixin

__all__ = ["SwiftCC", "MLTCPSwift"]


class SwiftCC(CongestionControl):
    """Delay-target AIMD: grow below ``target_delay``, back off above it."""

    name = "swift"

    def __init__(
        self,
        target_delay: float = 400e-6,
        ai: float = 1.0,
        beta: float = 0.8,
        max_mdf: float = 0.5,
    ) -> None:
        super().__init__()
        if target_delay <= 0:
            raise ValueError(f"target_delay must be positive, got {target_delay!r}")
        if ai <= 0:
            raise ValueError(f"ai must be positive, got {ai!r}")
        if not 0 < beta < 1:
            raise ValueError(f"beta must be in (0, 1), got {beta!r}")
        if not 0 < max_mdf < 1:
            raise ValueError(f"max_mdf must be in (0, 1), got {max_mdf!r}")
        self.target_delay = target_delay
        self.ai = ai
        self.beta = beta
        self.max_mdf = max_mdf
        self._last_decrease_time = -float("inf")

    def on_ack(self, newly_acked: int, conn: TcpSender) -> None:
        """Grow below the delay target; back off proportionally above it."""
        self._observe(newly_acked, conn)
        rtt = conn.smoothed_rtt
        if rtt is None:
            # No sample yet: conservative slow-start-style growth.
            self.cwnd += newly_acked
            return
        if rtt <= self.target_delay:
            if self.in_slow_start:
                self.cwnd = min(self.cwnd + newly_acked, self.ssthresh + newly_acked)
            else:
                self.cwnd += self._ai_scale(conn) * self.ai * newly_acked / self.cwnd
            return
        # Above target: decrease proportionally to excess, once per RTT.
        now = conn.sim.now
        if now - self._last_decrease_time < rtt:
            return
        self._last_decrease_time = now
        excess = min(self.max_mdf, self.beta * (rtt - self.target_delay) / rtt)
        self.cwnd = max(MIN_CWND, self.cwnd * (1.0 - excess))
        self.ssthresh = min(self.ssthresh, self.cwnd)


class MLTCPSwift(_MltcpMixin, SwiftCC):
    """Swift with the additive increase scaled by ``F(bytes_ratio)``;
    ``MLTCPSwift(config, target_delay=...)`` passes Swift's keyword
    arguments through."""

    name = "mltcp-swift"
