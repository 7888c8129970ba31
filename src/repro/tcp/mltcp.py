"""MLTCP congestion-control variants (paper §3, Algorithm 1).

Each MLTCP-X class is :class:`_MltcpMixin` plus its base algorithm X, and
overrides exactly the two hooks every :class:`CongestionControl` declares,
mirroring the paper's kernel module:

1. ``_observe``: on every ACK it feeds the
   :class:`~repro.core.iteration.IterationTracker` (Algorithm 1's state:
   ``bytes_sent``, ``bytes_ratio``, iteration-boundary detection via ACK
   gaps, optional online learning of TOTAL_BYTES and COMP_TIME).
2. ``_ai_scale``: it scales the base algorithm's window-increase step by
   ``F(bytes_ratio)`` — Eq. 1 for Reno, and "other congestion control
   schemes are augmented in a similar way" (§6) for CUBIC, DCTCP and
   Swift (:class:`repro.tcp.swift.MLTCPSwift`).  The rate-based
   MLTCP-DCQCN (:mod:`repro.tcp.dcqcn`) holds the same
   :class:`MltcpState`.

Everything else — slow start, loss recovery, timers — is inherited
unchanged, which is the paper's deployability argument.

Robustness (beyond the paper, docs/ROBUSTNESS.md): when the tracker flags
its TOTAL_BYTES estimate unreliable, :meth:`MltcpState.aggressiveness`
clamps ``F`` to exactly 1, which makes every MLTCP-X behave as its vanilla
base algorithm until the tracker re-earns trust.  Episodes are recorded in
:attr:`MltcpState.degradation_episodes` and, when a
:class:`~repro.guards.core.GuardRail` is attached, reported with
``fallback_engaged=True`` (degrading *is* the graceful path, so it never
raises even under the ``raise`` policy).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..core.config import MLTCPConfig
from ..core.iteration import IterationTracker
from .base import CongestionControl, TcpSender
from .cubic import CubicCC
from .dctcp import DctcpCC
from .reno import RenoCC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..guards.core import GuardRail
    from .dcqcn import RateSender

__all__ = [
    "DEGRADED_AGGRESSIVENESS",
    "MltcpState",
    "MLTCPReno",
    "MLTCPCubic",
    "MLTCPDctcp",
]

#: The aggressiveness used while the tracker's estimate is unreliable.
#: Exactly 1 by construction — it makes Eq. 1 collapse to the base
#: algorithm's additive increase, so a degraded MLTCP-X *is* vanilla X.
#: The bounded-model-checking layer mirrors this constant and proves the
#: step-equivalence (``repro verify`` degradation-safety property); lint
#: rule MDL001 keeps the mirror in sync.
DEGRADED_AGGRESSIVENESS = 1.0


class MltcpState:
    """Per-flow MLTCP bookkeeping shared by all MLTCP-X variants.

    Per ACK, :meth:`observe_ack` makes one :meth:`IterationTracker.on_ack`
    call and syncs the degradation episode log only while the estimate is
    distrusted or once an episode exists.
    """

    def __init__(self, config: MLTCPConfig | None = None) -> None:
        self.config = config if config is not None else MLTCPConfig()
        self.tracker = IterationTracker(self.config)
        self.guardrail: Optional["GuardRail"] = None
        #: Completed and open degradation episodes, oldest first:
        #: ``{"flow", "reason", "start", "end"}`` with ``end is None`` while
        #: the episode is still open.
        self.degradation_episodes: list[dict] = []

    def attach_guardrail(self, rail: "GuardRail") -> None:
        """Report degradation transitions to ``rail`` from now on."""
        self.guardrail = rail

    @property
    def degraded(self) -> bool:
        """Whether F is currently clamped to 1 (vanilla base CC)."""
        return self.tracker.estimate_unreliable

    def observe_ack(self, newly_acked: int, conn: "TcpSender | RateSender") -> None:
        """Algorithm 1 lines 7–17: update bytes_sent / bytes_ratio."""
        tracker, now = self.tracker, conn.sim.now
        tracker.on_ack(now, newly_acked * conn.mss_bytes, conn.smoothed_rtt)
        if tracker.estimate_unreliable or self.degradation_episodes:
            # Test doubles may omit flow_id; the label is cosmetic here.
            self._sync_degradation(now, getattr(conn, "flow_id", ""))

    def aggressiveness(self) -> float:
        """``F(bytes_ratio)``, clamped to 1 (vanilla CC) while degraded."""
        tracker = self.tracker
        if tracker.estimate_unreliable:
            return DEGRADED_AGGRESSIVENESS
        return tracker.config.function(tracker.bytes_ratio)

    def reset_iteration(self, now: float, flow: str = "") -> None:
        """Drop *all* Algorithm 1 state at a job kill/restart.

        A killed-and-restarted job begins a fresh iteration AND a fresh
        training run: carrying the aborted iteration's ``bytes_sent``
        forward would make the restarted flow look late in its collective,
        and learned TOTAL_BYTES/COMP_TIME estimates describe a run that no
        longer exists (learning from the aborted partial iteration would
        poison them).  :meth:`IterationTracker.reset_after_restart` discards
        everything and — when learned estimates were in use — flags the
        estimate unreliable, which degrades this flow to vanilla CC until
        re-learning completes.
        """
        self.tracker.reset_after_restart(now)
        self._sync_degradation(now, flow)

    def _sync_degradation(self, now: float, flow: str) -> None:
        """Mirror the tracker's reliability flag into the episode log."""
        open_episode = bool(
            self.degradation_episodes
            and self.degradation_episodes[-1]["end"] is None
        )
        if self.tracker.estimate_unreliable and not open_episode:
            reason = self.tracker.unreliable_reason or "unknown"
            self.degradation_episodes.append(
                {"flow": flow, "reason": reason, "start": now, "end": None}
            )
            if self.guardrail is not None:
                self.guardrail.violation(
                    "tracker-sanity",
                    flow,
                    now,
                    f"estimate unreliable ({reason}); degraded to vanilla CC",
                    fallback_engaged=True,
                )
        elif not self.tracker.estimate_unreliable and open_episode:
            self.degradation_episodes[-1]["end"] = now


class _MltcpMixin(CongestionControl):
    """Shared plumbing: construct state, wire the two hooks.

    Declares :class:`CongestionControl` as its base so the cooperative
    ``super().__init__()`` / ``super().on_transfer_abort()`` calls are
    statically known to resolve; in the concrete MLTCP-X classes the MRO
    places the base algorithm X between this mixin and
    :class:`CongestionControl`, so X's hooks still run.  Keyword arguments
    after ``config`` go to X's constructor.
    """

    def __init__(self, config: MLTCPConfig | None = None, **base_kwargs: Any) -> None:
        super().__init__(**base_kwargs)
        self.mltcp = MltcpState(config)

    def _observe(self, newly_acked: int, conn: TcpSender) -> None:
        self.mltcp.observe_ack(newly_acked, conn)

    def _ai_scale(self, conn: TcpSender) -> float:
        return self.mltcp.aggressiveness()

    def on_transfer_abort(self, conn: TcpSender) -> None:
        """Transfer aborted (job kill/restart): full Algorithm 1 reset."""
        super().on_transfer_abort(conn)
        self.mltcp.reset_iteration(conn.sim.now, getattr(conn, "flow_id", ""))


class MLTCPReno(_MltcpMixin, RenoCC):
    """MLTCP-Reno: Algorithm 1 — ``cwnd += F(bytes_ratio) * num_acks/cwnd``."""

    name = "mltcp-reno"


class MLTCPCubic(_MltcpMixin, CubicCC):
    """MLTCP-CUBIC: the cubic increment scaled by ``F(bytes_ratio)``."""

    name = "mltcp-cubic"


class MLTCPDctcp(_MltcpMixin, DctcpCC):
    """MLTCP-DCTCP: DCTCP's additive increase scaled by ``F(bytes_ratio)``."""

    name = "mltcp-dctcp"
