"""DCTCP congestion control (ECN-proportional decrease).

DCTCP keeps an EWMA ``alpha`` of the fraction of ECN-marked bytes per
window and reduces ``cwnd`` by ``alpha / 2`` once per RTT when marks were
seen, instead of Reno's blunt halving.  Growth is Reno-like, so the MLTCP
augmentation point — scaling the additive-increase step by
``F(bytes_ratio)`` — is identical.
"""

from __future__ import annotations

from .base import CongestionControl, MIN_CWND, TcpSender

__all__ = ["DctcpCC"]


class DctcpCC(CongestionControl):
    """DCTCP with g = 1/16 and per-window proportional decrease."""

    name = "dctcp"
    ecn_enabled = True

    #: EWMA gain for the marked fraction.
    G = 1.0 / 16.0

    def __init__(self) -> None:
        super().__init__()
        self.alpha = 0.0
        self._window_end = 0
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._last_newly_acked = 0

    def on_ack(self, newly_acked: int, conn: TcpSender) -> None:
        """Reno-style growth plus per-window alpha bookkeeping."""
        self._observe(newly_acked, conn)
        self._last_newly_acked = newly_acked
        self._acked_in_window += newly_acked
        if conn.snd_una >= self._window_end:
            self._end_window(conn)
        if self.in_slow_start:
            self.cwnd = min(self.cwnd + newly_acked, self.ssthresh + newly_acked)
            return
        self.cwnd += self._ai_scale(conn) * newly_acked / self.cwnd

    def on_ecn_echo(self, echoed: int, total: int, conn: TcpSender) -> None:
        """Count marked bytes; end slow start on the first mark."""
        # Called right after on_ack for the same cumulative ACK; attribute
        # the newly acked segments of that ACK to the marked count.
        self._marked_in_window += self._last_newly_acked
        if self.in_slow_start:
            # Marks end slow start immediately (as in the DCTCP paper).
            self.ssthresh = min(self.ssthresh, self.cwnd)

    # -- internals ----------------------------------------------------------

    def _end_window(self, conn: TcpSender) -> None:
        if self._acked_in_window > 0:
            fraction = min(1.0, self._marked_in_window / self._acked_in_window)
            self.alpha = (1.0 - self.G) * self.alpha + self.G * fraction
            if self._marked_in_window > 0:
                self.cwnd = max(MIN_CWND, self.cwnd * (1.0 - self.alpha / 2.0))
        self._acked_in_window = 0
        self._marked_in_window = 0
        self._window_end = conn.snd_una + max(1, int(self.cwnd))
