"""Unit tests for the Algorithm 1 state machine (IterationTracker)."""

from unittest import mock

import pytest

from repro.core.config import MLTCPConfig
from repro.core.iteration import IterationTracker


def make_tracker(total_bytes=15000, comp_time=0.1, **kwargs):
    return IterationTracker(
        MLTCPConfig(total_bytes=total_bytes, comp_time=comp_time, **kwargs)
    )


class TestBytesRatio:
    def test_starts_at_zero(self):
        tracker = make_tracker()
        assert tracker.bytes_ratio == 0.0
        assert tracker.bytes_sent == 0

    def test_ratio_grows_with_acks(self):
        tracker = make_tracker(total_bytes=15000)
        assert tracker.on_ack(0.0, 1500) == pytest.approx(0.1)
        assert tracker.on_ack(0.001, 3000) == pytest.approx(0.3)

    def test_ratio_capped_at_one(self):
        """Algorithm 1 line 16: bytes_ratio = min(1, ...)."""
        tracker = make_tracker(total_bytes=1500)
        tracker.on_ack(0.0, 1500)
        assert tracker.on_ack(0.001, 1500) == 1.0

    def test_aggressiveness_uses_ratio(self):
        tracker = make_tracker(total_bytes=3000)
        tracker.on_ack(0.0, 1500)
        # F(0.5) with the paper's linear function = 1.125.
        assert tracker.config.function(tracker.bytes_ratio) == pytest.approx(1.75 * 0.5 + 0.25)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError, match="acked_bytes"):
            make_tracker().on_ack(0.0, -1)

    def test_rejects_time_reversal(self):
        tracker = make_tracker()
        tracker.on_ack(1.0, 1500)
        with pytest.raises(ValueError, match="backwards"):
            tracker.on_ack(0.5, 1500)


class TestIterationBoundary:
    def test_gap_resets_state(self):
        """Algorithm 1 lines 10-13: gap > COMP_TIME starts a new iteration."""
        tracker = make_tracker(total_bytes=15000, comp_time=0.05)
        tracker.on_ack(0.000, 7500)
        tracker.on_ack(0.001, 7500)
        assert tracker.bytes_ratio == 1.0
        ratio = tracker.on_ack(0.2, 1500)  # gap of ~0.2 > 0.05
        assert ratio == pytest.approx(1500 / 15000)
        assert tracker.bytes_sent == 1500

    def test_sub_threshold_gap_does_not_reset(self):
        tracker = make_tracker(total_bytes=15000, comp_time=0.05)
        tracker.on_ack(0.0, 1500)
        tracker.on_ack(0.04, 1500)
        assert tracker.bytes_sent == 3000

    def test_boundary_records_iteration(self):
        tracker = make_tracker(total_bytes=3000, comp_time=0.05)
        tracker.on_ack(0.000, 1500)
        tracker.on_ack(0.001, 1500)
        tracker.on_ack(0.2, 1500)
        records = tracker.completed_iterations
        assert len(records) == 1
        assert records[0].bytes_sent == 3000
        assert records[0].index == 0
        assert records[0].comm_duration == pytest.approx(0.001)

    def test_iteration_index_increments(self):
        tracker = make_tracker(total_bytes=1500, comp_time=0.05)
        tracker.on_ack(0.0, 1500)
        tracker.on_ack(0.2, 1500)
        tracker.on_ack(0.4, 1500)
        assert tracker.iteration_index == 2


class TestOnlineLearning:
    """§3.2: TOTAL_BYTES and COMP_TIME are learned in the first iterations."""

    def test_learns_total_bytes_after_enough_iterations(self):
        tracker = IterationTracker(
            MLTCPConfig(comp_time=0.05, learn_iterations=2)
        )
        # Two iterations of 3000 bytes each, separated by big gaps.
        for start in (0.0, 1.0, 2.0):
            tracker.on_ack(start, 1500)
            tracker.on_ack(start + 0.001, 1500)
        assert tracker.total_bytes == pytest.approx(3000)

    def test_ratio_zero_while_learning(self):
        """Unknown TOTAL_BYTES behaves like plain TCP (least aggressive)."""
        tracker = IterationTracker(MLTCPConfig(comp_time=0.05))
        tracker.on_ack(0.0, 1500)
        assert tracker.bytes_ratio == 0.0
        assert tracker.config.function(tracker.bytes_ratio) == pytest.approx(0.25)

    def test_learns_comp_time_from_rtt_gaps(self):
        """Boundary detection falls back to an SRTT multiple (§3.2)."""
        tracker = IterationTracker(MLTCPConfig(total_bytes=3000))
        srtt = 0.001
        tracker.on_ack(0.0, 1500, smoothed_rtt=srtt)
        tracker.on_ack(0.001, 1500, smoothed_rtt=srtt)
        # Gap of 0.5 s >> 4 * srtt: new iteration even without comp_time.
        tracker.on_ack(0.5, 1500, smoothed_rtt=srtt)
        assert tracker.bytes_sent == 1500
        assert tracker.comp_time is not None

    def test_no_boundary_without_any_threshold(self):
        """No comp_time and no RTT estimate: no resets can happen."""
        tracker = IterationTracker(MLTCPConfig(total_bytes=3000))
        tracker.on_ack(0.0, 1500)
        tracker.on_ack(10.0, 1500)
        assert tracker.bytes_sent == 3000

    def test_configured_values_take_precedence(self):
        tracker = make_tracker(total_bytes=9999, comp_time=0.123)
        assert tracker.total_bytes == 9999
        assert tracker.comp_time == 0.123


def drive_iterations(tracker, volume, count, start=0.0, chunk=1500, period=1.0):
    """Feed ``count`` iterations of ``volume`` bytes each; returns end time."""
    now = start
    for _ in range(count):
        sent = 0
        while sent < volume:
            step = min(chunk, volume - sent)
            tracker.on_ack(now, step)
            sent += step
            now += 0.001
        now += period  # >> comp_time: the next ACK opens a new iteration
    return now


class TestAdversarialEstimates:
    """Mis-estimated TOTAL_BYTES must trip the degradation state machine
    (docs/ROBUSTNESS.md), not silently skew the aggressiveness."""

    def test_2x_overestimate_degrades_after_consecutive_drift(self):
        # Real volume 6000, estimate 12000: drift = 0.5 > 0.45 every
        # iteration.  Entry needs degrade_after_iterations consecutive
        # dirty boundaries (here 2).
        tracker = make_tracker(
            total_bytes=12000, comp_time=0.05,
            drift_warmup_iterations=0, degrade_after_iterations=2,
        )
        drive_iterations(tracker, volume=6000, count=2)
        tracker.on_ack(10.0, 1500)  # boundary of the 2nd iteration
        assert tracker.estimate_unreliable
        assert tracker.unreliable_reason.startswith("drift=")

    def test_single_drifting_iteration_is_forgiven(self):
        # One short iteration (an RTO fragment, a straggler hiccup) must
        # not condemn an otherwise-correct estimate.
        tracker = make_tracker(
            total_bytes=12000, comp_time=0.05,
            drift_warmup_iterations=0, degrade_after_iterations=2,
        )
        end = drive_iterations(tracker, volume=6000, count=1)  # drifted
        drive_iterations(tracker, volume=12000, count=2, start=end)  # clean
        tracker.on_ack(100.0, 1500)
        assert not tracker.estimate_unreliable

    def test_half_x_underestimate_latches_missed_boundary(self):
        # Real volume 2x the estimate: bytes_sent overruns
        # (1 + drift_threshold) * total mid-iteration, flagged immediately
        # without waiting for a boundary that may never be detected.
        tracker = make_tracker(total_bytes=6000, comp_time=0.05)
        drive_iterations(tracker, volume=12000, count=1)
        assert tracker.estimate_unreliable
        assert tracker.unreliable_reason == "missed-boundary"

    def test_ratio_clamps_at_the_edges_under_overrun(self):
        tracker = make_tracker(total_bytes=6000, comp_time=0.05)
        assert tracker.bytes_ratio == 0.0
        now = 0.0
        for _ in range(10):  # 15000 bytes >> 6000 estimate
            ratio = tracker.on_ack(now, 1500)
            assert 0.0 <= ratio <= 1.0
            now += 0.001
        assert tracker.bytes_ratio == 1.0

    def test_reengages_after_k_clean_iterations(self):
        tracker = make_tracker(
            total_bytes=12000, comp_time=0.05,
            drift_warmup_iterations=0, degrade_after_iterations=2,
            reengage_iterations=3,
        )
        end = drive_iterations(tracker, volume=6000, count=2)
        # Clean iterations: 2 are not enough, the 3rd redeems.
        end = drive_iterations(tracker, volume=12000, count=2, start=end)
        tracker.on_ack(end, 1500)
        assert tracker.estimate_unreliable
        tracker.bytes_sent = 0  # restart the partial iteration cleanly
        end = drive_iterations(tracker, volume=12000, count=1, start=end + 1.0)
        tracker.on_ack(end, 1500)
        assert not tracker.estimate_unreliable
        assert tracker.unreliable_reason is None

    def test_warmup_iterations_count_for_nothing(self):
        # Startup fragments (slow start, RTOs) drift wildly; inside the
        # warmup window they neither condemn nor redeem.
        tracker = make_tracker(
            total_bytes=12000, comp_time=0.05,
            drift_warmup_iterations=3, degrade_after_iterations=2,
        )
        drive_iterations(tracker, volume=1500, count=3)  # all inside warmup
        tracker.on_ack(10.0, 1500)
        assert not tracker.estimate_unreliable

    def test_degrade_opt_out_never_flags(self):
        # The saturation idiom (total_bytes=1 as a constant-weight trick)
        # must be usable with the guard disabled.
        tracker = make_tracker(
            total_bytes=1, comp_time=1e9, degrade_on_unreliable=False
        )
        now = 0.0
        for _ in range(50):
            tracker.on_ack(now, 1500)
            now += 0.001
        assert not tracker.estimate_unreliable
        assert tracker.bytes_ratio == 1.0


class TestRestartReset:
    def test_reset_after_restart_discards_learned_state(self):
        tracker = IterationTracker(
            MLTCPConfig(comp_time=0.05, learn_iterations=2)
        )
        for start in (0.0, 1.0, 2.0, 3.0):
            tracker.on_ack(start, 1500)
            tracker.on_ack(start + 0.001, 1500)
        assert tracker.total_bytes is not None  # learning completed
        tracker.reset_after_restart(5.0)
        assert tracker.total_bytes is None
        assert tracker.bytes_sent == 0
        assert tracker.bytes_ratio == 0.0
        assert tracker.iteration_index == 0
        assert tracker.completed_iterations == ()
        # Learned state was in use → the estimate is distrusted until
        # re-learning completes.
        assert tracker.estimate_unreliable
        assert tracker.unreliable_reason == "post-restart"

    def test_reset_after_restart_keeps_configured_estimates_trusted(self):
        tracker = make_tracker(total_bytes=3000, comp_time=0.05)
        drive_iterations(tracker, volume=3000, count=2)
        tracker.reset_after_restart(10.0)
        assert tracker.total_bytes == 3000  # configured: ground truth
        assert not tracker.estimate_unreliable


class TestGapLog:
    """Only COMP_TIME learning reads the intra-iteration ACK gaps, so a
    tracker with a configured COMP_TIME keeps none of them (with COMP_TIME
    unset, TestOnlineLearning covers the learning from them)."""

    def test_fairness_share_run_keeps_no_gaps(self):
        from repro.harness import experiments
        from repro.tcp.mltcp import MLTCPReno

        made = []

        class Recorded(MLTCPReno):
            def __init__(self, config=None):
                super().__init__(config)
                made.append(self)

        with mock.patch.object(experiments, "MLTCPReno", Recorded):
            experiments.fairness_competition_share(
                loss_probs=(0.0,), horizon=0.1, seeds=(1,)
            )
        (cc,) = made
        tracker = cc.mltcp.tracker
        assert tracker.config.comp_time == 1e9
        assert tracker.bytes_sent > 1000 * 1460  # over a thousand ACKs
        assert tracker._observed_gaps == []
