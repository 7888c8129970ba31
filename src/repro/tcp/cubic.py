"""TCP CUBIC congestion control.

CUBIC grows the window along ``W(t) = C*(t - K)^3 + W_max`` where ``t`` is
the time since the last decrease and ``K = cbrt(W_max * (1 - beta) / C)``.
The per-ACK increment toward that cubic target is the step MLTCP-CUBIC
scales by ``F(bytes_ratio)`` — the paper notes "other congestion control
schemes are augmented in a similar way" (§6).

Simplifications vs Linux: no TCP-friendly (Reno-emulation) region and no
HyStart; neither affects the window dynamics at the datacenter RTTs and
window sizes exercised here.
"""

from __future__ import annotations

from .base import CongestionControl, MIN_CWND, TcpSender

__all__ = ["CubicCC"]


class CubicCC(CongestionControl):
    """CUBIC window growth with beta = 0.7 and C = 0.4 (Linux defaults)."""

    name = "cubic"

    #: Cubic scaling constant (windows per second cubed).
    C = 0.4
    #: Multiplicative-decrease factor.
    BETA = 0.7

    def __init__(self) -> None:
        super().__init__()
        self._w_max = 0.0
        self._epoch_start: float | None = None
        self._k = 0.0

    def on_ack(self, newly_acked: int, conn: TcpSender) -> None:
        """Grow toward the cubic target W(t); slow start below ssthresh."""
        self._observe(newly_acked, conn)
        if self.in_slow_start:
            self.cwnd = min(self.cwnd + newly_acked, self.ssthresh + newly_acked)
            return
        now = conn.sim.now
        if self._epoch_start is None:
            self._epoch_start = now
            self._w_max = max(self._w_max, self.cwnd)
            self._k = ((self._w_max * (1.0 - self.BETA)) / self.C) ** (1.0 / 3.0)
        rtt = conn.smoothed_rtt or 0.0
        t = now - self._epoch_start + rtt
        target = self.C * (t - self._k) ** 3 + self._w_max
        if target > self.cwnd:
            increment = (target - self.cwnd) / self.cwnd
        else:
            # Below the cubic curve: probe very gently (Linux's 1% regime).
            increment = 0.01 / self.cwnd
        self.cwnd += self._ai_scale(conn) * increment * newly_acked

    def on_fast_retransmit(self, conn: TcpSender) -> None:
        """Multiplicative decrease by beta; remember W_max for the cubic."""
        self._register_loss()
        self.ssthresh = max(self.cwnd * self.BETA, 2.0)
        self.cwnd = self.ssthresh + 3.0

    def on_recovery_exit(self, conn: TcpSender) -> None:
        """Deflate to ssthresh when the recovery point is fully acked."""
        self.cwnd = max(MIN_CWND, self.ssthresh)

    def on_rto(self, conn: TcpSender) -> None:
        """Timeout: record the loss epoch, then collapse like the base."""
        self._register_loss()
        super().on_rto(conn)

    # -- internals ----------------------------------------------------------

    def _register_loss(self) -> None:
        self._w_max = self.cwnd
        self._epoch_start = None
