"""Configuration shared by every MLTCP integration point.

Algorithm 1 in the paper is parameterized by two per-job constants —
``TOTAL_BYTES`` (bytes sent per training iteration) and ``COMP_TIME`` (the
communication gap that marks an iteration boundary) — plus the aggressiveness
function's slope/intercept and the MTU used to convert ACK counts to bytes.
:class:`MLTCPConfig` bundles them so the packet-level TCP stack, the fluid
simulator, and the analysis module all agree on parameter semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .aggressiveness import (
    AggressivenessFunction,
    LinearAggressiveness,
    default_aggressiveness,
)

__all__ = ["MLTCPConfig", "DEFAULT_MTU_BYTES"]

#: Maximum packet size used by the system (Algorithm 1, line 6).
DEFAULT_MTU_BYTES = 1500


@dataclass(frozen=True)
class MLTCPConfig:
    """Parameters of one MLTCP-augmented flow.

    Parameters
    ----------
    function:
        The bandwidth aggressiveness function shared by all flows
        (requirement iii).  Defaults to the paper's linear function with
        slope 1.75 and intercept 0.25.
    total_bytes:
        ``TOTAL_BYTES``: bytes this flow sends per training iteration.
        ``None`` means "learn it online" from the first iterations, as the
        paper's kernel module does.
    comp_time:
        ``COMP_TIME`` in seconds: an ACK gap longer than this marks the start
        of a new iteration (Algorithm 1, line 10).  ``None`` means "learn it
        online" as a multiple of the RTT.
    mtu_bytes:
        Maximum packet size; converts ACK counts to bytes (line 7).
    learn_iterations:
        When learning online, how many complete iterations to observe before
        trusting the learned ``total_bytes``.
    gap_rtt_multiplier:
        When learning ``comp_time`` online, the iteration boundary is an ACK
        gap exceeding this many smoothed RTTs ("gaps in the ack arrivals that
        exceed several round-trip times", §3.2).
    degrade_on_unreliable:
        Graceful-degradation master switch (docs/ROBUSTNESS.md): when the
        tracker's TOTAL_BYTES estimate is flagged unreliable — observed
        per-iteration volume drifting beyond ``drift_threshold``, a missed
        boundary, or post-restart staleness — MLTCP clamps ``F`` to 1 and
        behaves like its vanilla base algorithm until the estimate heals.
    drift_threshold:
        Fractional deviation of the observed per-iteration volume from the
        TOTAL_BYTES estimate beyond which the estimate is unreliable.  The
        default tolerates the paper's §4 noise (well under 45%) while a
        2x/0.5x mis-estimate (drift 0.5/1.0) trips it.
    reengage_iterations:
        Hysteresis: consecutive clean iterations (volume within
        ``drift_threshold`` of the estimate) required before a degraded
        sender re-engages MLTCP.
    degrade_after_iterations:
        Entry hysteresis: consecutive drifting iterations required before
        the estimate is condemned.  A single retransmission timeout can
        split one healthy iteration into a tiny fragment plus a remainder
        (one isolated drifting record); a genuinely wrong estimate drifts
        on *every* iteration, so two in a row separates the two cleanly.
        Missed-boundary overruns are not hysteresis-gated (they cannot
        happen spuriously — fragments undershoot).
    drift_warmup_iterations:
        Completed iterations to observe before drift can condemn the
        estimate.  ACK-gap boundary detection is noisy while a flow is in
        slow start and early recovery — a retransmission timeout splits the
        first iteration into small fragments whose volume is far below
        TOTAL_BYTES — so judging drift from the start would degrade
        perfectly healthy flows.  The missed-boundary overrun check is not
        warmup-gated (fragments undershoot; only a genuinely low estimate
        overruns).
    """

    function: AggressivenessFunction = field(default_factory=default_aggressiveness)
    total_bytes: Optional[int] = None
    comp_time: Optional[float] = None
    mtu_bytes: int = DEFAULT_MTU_BYTES
    learn_iterations: int = 2
    gap_rtt_multiplier: float = 4.0
    degrade_on_unreliable: bool = True
    drift_threshold: float = 0.45
    reengage_iterations: int = 3
    degrade_after_iterations: int = 2
    drift_warmup_iterations: int = 3

    def __post_init__(self) -> None:
        for name in ("total_bytes", "comp_time", "gap_rtt_multiplier", "drift_threshold"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.total_bytes is not None and self.total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive, got {self.total_bytes!r}")
        if self.comp_time is not None and self.comp_time <= 0:
            raise ValueError(f"comp_time must be positive, got {self.comp_time!r}")
        if self.mtu_bytes <= 0:
            raise ValueError(f"mtu_bytes must be positive, got {self.mtu_bytes!r}")
        if self.learn_iterations < 1:
            raise ValueError(
                f"learn_iterations must be at least 1, got {self.learn_iterations!r}"
            )
        if self.gap_rtt_multiplier <= 1.0:
            raise ValueError(
                "gap_rtt_multiplier must exceed 1 RTT to avoid classifying "
                f"ordinary ACK jitter as an iteration boundary, got "
                f"{self.gap_rtt_multiplier!r}"
            )
        if self.drift_threshold <= 0.0:
            raise ValueError(
                f"drift_threshold must be positive, got {self.drift_threshold!r}"
            )
        if self.reengage_iterations < 1:
            raise ValueError(
                f"reengage_iterations must be at least 1, got "
                f"{self.reengage_iterations!r}"
            )
        if self.degrade_after_iterations < 1:
            raise ValueError(
                f"degrade_after_iterations must be at least 1, got "
                f"{self.degrade_after_iterations!r}"
            )
        if self.drift_warmup_iterations < 0:
            raise ValueError(
                f"drift_warmup_iterations must be non-negative, got "
                f"{self.drift_warmup_iterations!r}"
            )

    @property
    def slope(self) -> float:
        """Slope of the linear function, if linear (for the error bound)."""
        if isinstance(self.function, LinearAggressiveness):
            return self.function.slope
        raise TypeError(
            f"slope is only defined for LinearAggressiveness, not "
            f"{type(self.function).__name__}"
        )

    @property
    def intercept(self) -> float:
        """Intercept of the linear function, if linear."""
        if isinstance(self.function, LinearAggressiveness):
            return self.function.intercept
        raise TypeError(
            f"intercept is only defined for LinearAggressiveness, not "
            f"{type(self.function).__name__}"
        )

    @property
    def knows_iteration_shape(self) -> bool:
        """Whether both TOTAL_BYTES and COMP_TIME are given (no learning)."""
        return self.total_bytes is not None and self.comp_time is not None

    def with_function(self, function: AggressivenessFunction) -> "MLTCPConfig":
        """A copy of this config using a different aggressiveness function."""
        return replace(self, function=function)
