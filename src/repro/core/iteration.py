"""Algorithm 1 state machine: tracking iteration progress from ACK arrivals.

The paper's MLTCP-Reno kernel module keeps three pieces of per-flow state —
``bytes_sent``, ``bytes_ratio`` and ``prev_ack_tstamp`` — updated on every
ACK.  A gap between consecutive ACKs longer than ``COMP_TIME`` marks the
start of a new training iteration and resets the state (Algorithm 1,
lines 10–13); otherwise ``bytes_ratio = min(1, bytes_sent / TOTAL_BYTES)``
(line 16).

The paper also "automatically learn[s]" ``TOTAL_BYTES`` and ``COMP_TIME`` by
"measuring the total amount of data and computation time during the first few
iterations" (§3.2); :class:`IterationTracker` implements that online learning
when the config leaves them unset.

Beyond the paper, the tracker judges its own estimate (docs/ROBUSTNESS.md):
when the observed per-iteration volume drifts beyond
``config.drift_threshold`` of the TOTAL_BYTES estimate, a boundary is
missed (``bytes_sent`` overruns the estimate mid-iteration), or learned
state is discarded after an application restart, it sets
``estimate_unreliable`` — and :class:`repro.tcp.mltcp.MltcpState` clamps the
aggressiveness to 1 (vanilla CC) until ``config.reengage_iterations``
consecutive clean iterations re-earn trust.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .config import MLTCPConfig

__all__ = ["IterationTracker", "IterationRecord"]


@dataclass(frozen=True)
class IterationRecord:
    """Summary of one observed (completed) training iteration."""

    index: int
    bytes_sent: int
    start_time: float
    end_time: float

    @property
    def comm_duration(self) -> float:
        """Wall-clock length of the iteration's communication phase."""
        return self.end_time - self.start_time


@dataclass
class IterationTracker:
    """Per-flow Algorithm 1 state, fed by ACK arrivals.

    Call :meth:`on_ack` for every received ACK; it returns the current
    ``bytes_ratio`` to plug into the aggressiveness function.  The tracker is
    transport-agnostic: the packet simulator drives it from real ACK events
    while the fluid simulator drives it from delivered-byte accounting.
    """

    config: MLTCPConfig
    bytes_sent: int = 0
    bytes_ratio: float = 0.0
    prev_ack_tstamp: Optional[float] = None
    iteration_index: int = 0
    #: Whether the TOTAL_BYTES estimate is currently distrusted; while set,
    #: MLTCP degrades to its vanilla base CC (docs/ROBUSTNESS.md).
    estimate_unreliable: bool = False
    #: Why the estimate is distrusted (``"drift=..."``, ``"missed-boundary"``,
    #: ``"post-restart"``); ``None`` while reliable.
    unreliable_reason: Optional[str] = None
    _iteration_start: Optional[float] = None
    _learned_total_bytes: Optional[float] = None
    _learned_comp_time: Optional[float] = None
    _completed: list[IterationRecord] = field(default_factory=list)
    _observed_gaps: list[float] = field(default_factory=list)
    _clean_streak: int = 0
    _dirty_streak: int = 0
    _missed_boundary: bool = False

    @property
    def total_bytes(self) -> Optional[float]:
        """Effective TOTAL_BYTES: configured value, else the learned one."""
        if self.config.total_bytes is not None:
            return float(self.config.total_bytes)
        return self._learned_total_bytes

    @property
    def comp_time(self) -> Optional[float]:
        """Effective COMP_TIME: configured value, else the learned one."""
        if self.config.comp_time is not None:
            return self.config.comp_time
        return self._learned_comp_time

    @property
    def completed_iterations(self) -> tuple[IterationRecord, ...]:
        """Records of iterations whose boundary has been observed."""
        return tuple(self._completed)

    def on_ack(
        self, now: float, acked_bytes: int, smoothed_rtt: Optional[float] = None
    ) -> float:
        """Process one cumulative ACK covering ``acked_bytes`` new bytes.

        Parameters
        ----------
        now:
            Current (simulation or wall-clock) time in seconds.
        acked_bytes:
            Bytes newly acknowledged by this ACK (``num_acks * MTU`` in the
            paper's packet-count formulation).
        smoothed_rtt:
            The connection's current SRTT estimate, used only to learn
            ``COMP_TIME`` online when the config does not provide it.

        Returns
        -------
        float
            The updated ``bytes_ratio`` in [0, 1].
        """
        if acked_bytes < 0:
            raise ValueError(f"acked_bytes must be non-negative, got {acked_bytes!r}")
        if self.prev_ack_tstamp is not None and now < self.prev_ack_tstamp:
            raise ValueError(
                f"time went backwards: now={now!r} < "
                f"prev_ack_tstamp={self.prev_ack_tstamp!r}"
            )

        boundary_gap = self._boundary_gap(smoothed_rtt)
        if self.prev_ack_tstamp is None:
            self._start_iteration(now)
        else:
            gap = now - self.prev_ack_tstamp
            if boundary_gap is not None and gap > boundary_gap:
                self._finish_iteration(end_time=self.prev_ack_tstamp)
                self._start_iteration(now)
            elif self.config.comp_time is None:
                # Only COMP_TIME learning (_learn_from) reads the gaps.
                self._observed_gaps.append(gap)

        self.bytes_sent += acked_bytes
        total = self.total_bytes
        if total is None or total <= 0:
            # Still in the learning phase: behave like plain TCP (ratio 0
            # yields the intercept, the least aggressive setting).
            self.bytes_ratio = 0.0
        else:
            self.bytes_ratio = min(1.0, self.bytes_sent / total)
            if (
                self.config.degrade_on_unreliable
                and not self._missed_boundary
                and self.bytes_sent > (1.0 + self.config.drift_threshold) * total
            ):
                # The iteration volume has overrun the estimate by more than
                # the drift tolerance and no boundary arrived: either the
                # estimate is badly low or boundary detection failed.  Flag
                # immediately rather than waiting for the (possibly never
                # observed) boundary.
                self._missed_boundary = True
                self.estimate_unreliable = True
                self.unreliable_reason = "missed-boundary"
                self._clean_streak = 0
        self.prev_ack_tstamp = now
        return self.bytes_ratio

    def reset_after_restart(self, now: float) -> None:
        """Discard *all* state after the application restarted.

        A restart aborts the in-flight transfer and restarts training from
        the last checkpoint, so the partial iteration must not be learned
        from (it would poison the TOTAL_BYTES max-window) and previously
        learned estimates describe a training run that no longer exists.
        Configured values survive (they are ground truth); learned ones are
        dropped and — when they were actually in use — the estimate is
        flagged unreliable so MLTCP rides vanilla CC until re-learning
        completes (docs/ROBUSTNESS.md).
        """
        stale_learned = (
            self.config.total_bytes is None and self._learned_total_bytes is not None
        ) or (self.config.comp_time is None and self._learned_comp_time is not None)
        self.bytes_sent = 0
        self.bytes_ratio = 0.0
        self.prev_ack_tstamp = None
        self.iteration_index = 0
        self._iteration_start = now
        self._learned_total_bytes = None
        self._learned_comp_time = None
        self._completed.clear()
        self._observed_gaps.clear()
        self._missed_boundary = False
        self._clean_streak = 0
        self._dirty_streak = 0
        if stale_learned and self.config.degrade_on_unreliable:
            self.estimate_unreliable = True
            self.unreliable_reason = "post-restart"

    # -- internals --------------------------------------------------------

    def _boundary_gap(self, smoothed_rtt: Optional[float]) -> Optional[float]:
        """The ACK gap threshold that signals a new iteration, if known."""
        comp_time = self.comp_time
        if comp_time is not None:
            return comp_time
        if smoothed_rtt is not None and smoothed_rtt > 0:
            return self.config.gap_rtt_multiplier * smoothed_rtt
        return None

    def _start_iteration(self, now: float) -> None:
        self.bytes_sent = 0
        self.bytes_ratio = 0.0
        self._iteration_start = now

    def _finish_iteration(self, end_time: float) -> None:
        start = self._iteration_start if self._iteration_start is not None else end_time
        record = IterationRecord(
            index=self.iteration_index,
            bytes_sent=self.bytes_sent,
            start_time=start,
            end_time=end_time,
        )
        self._completed.append(record)
        self.iteration_index += 1
        # Judge the estimate that was in effect *during* this iteration,
        # before learning updates it from the iteration's own volume.
        self._assess_reliability(record)
        self._learn_from(record)

    def _assess_reliability(self, record: IterationRecord) -> None:
        """Degradation state machine step, run at every iteration boundary.

        ``degrade_after_iterations`` consecutive drifting iterations
        (observed volume beyond ``drift_threshold`` of the estimate)
        condemn the estimate; ``reengage_iterations`` consecutive clean
        ones redeem it.  A missed boundary condemns immediately (latched by
        :meth:`on_ack`).  Iterations inside the warmup window or with no
        estimate at all (learning phase) count for nothing on either side.
        """
        if not self.config.degrade_on_unreliable:
            return
        missed = self._missed_boundary
        self._missed_boundary = False
        if missed:
            # on_ack already latched unreliable; the boundary merely closes
            # the dirty iteration.
            self._clean_streak = 0
            self._dirty_streak = 0
            return
        if record.index < self.config.drift_warmup_iterations:
            # Boundary detection is noisy during slow start / early
            # recovery: an RTO splits the first iteration into fragments
            # whose volume is far below TOTAL_BYTES.  Drift can neither
            # condemn nor redeem the estimate yet.
            return
        total = self.total_bytes
        if total is None or total <= 0 or record.bytes_sent <= 0:
            return
        drift = abs(record.bytes_sent - total) / total
        if drift > self.config.drift_threshold:
            self._clean_streak = 0
            self._dirty_streak += 1
            if (
                self.estimate_unreliable
                or self._dirty_streak >= self.config.degrade_after_iterations
            ):
                self.estimate_unreliable = True
                self.unreliable_reason = f"drift={drift:.2f}"
        else:
            self._dirty_streak = 0
            if self.estimate_unreliable:
                self._clean_streak += 1
                if self._clean_streak >= self.config.reengage_iterations:
                    self.estimate_unreliable = False
                    self.unreliable_reason = None
                    self._clean_streak = 0

    def _learn_from(self, record: IterationRecord) -> None:
        """Update online estimates of TOTAL_BYTES and COMP_TIME (§3.2)."""
        if self.config.total_bytes is None and record.bytes_sent > 0:
            if len(self._completed) >= self.config.learn_iterations:
                window = self._completed[-self.config.learn_iterations :]
                self._learned_total_bytes = max(r.bytes_sent for r in window)
        if self.config.comp_time is None and self._observed_gaps:
            # The computation gap dwarfs intra-iteration ACK gaps; halfway
            # between the largest intra-iteration gap and the boundary that
            # was just detected is a robust threshold.
            largest_intra = max(self._observed_gaps)
            self._learned_comp_time = max(
                self._learned_comp_time or 0.0, 2.0 * largest_intra
            )
        self._observed_gaps.clear()
