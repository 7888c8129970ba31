"""TCP Reno congestion control (the algorithm MLTCP augments, §3.1).

Slow start doubles the window each RTT; congestion avoidance adds
``num_acks / cwnd`` per cumulative ACK — exactly the step MLTCP scales by
``F(bytes_ratio)`` in Eq. 1.  Loss handling (halving, fast recovery) lives
in :class:`~repro.tcp.base.CongestionControl`.
"""

from __future__ import annotations

from .base import CongestionControl, TcpSender

__all__ = ["RenoCC"]


class RenoCC(CongestionControl):
    """Classic Reno AIMD with NewReno recovery semantics."""

    name = "reno"

    def on_ack(self, newly_acked: int, conn: TcpSender) -> None:
        """Slow start below ssthresh; additive increase (Eq. 1) above."""
        self._observe(newly_acked, conn)
        if self.in_slow_start:
            # Exponential growth, clamped so we do not overshoot far past
            # ssthresh within a single ACK.
            self.cwnd = min(self.cwnd + newly_acked, self.ssthresh + newly_acked)
            return
        # Additive increase: Eq. 1 with F == _ai_scale() (1.0 for plain Reno).
        self.cwnd += self._ai_scale(conn) * newly_acked / self.cwnd
