"""Tests for the rate-based DCQCN controller and MLTCP-DCQCN."""

from types import SimpleNamespace

import pytest

from repro.core.config import MLTCPConfig
from repro.simulator.engine import Simulator
from repro.simulator.queues import EcnQueue
from repro.simulator.topology import build_dumbbell
from repro.tcp.base import TcpReceiver
from repro.tcp.dcqcn import DcqcnController, MltcpDcqcnController, RateSender


class TestController:
    def test_starts_at_line_rate(self):
        controller = DcqcnController(line_rate_bps=1e9)
        assert controller.current_rate_bps == 1e9

    def test_congestion_cuts_rate(self):
        controller = DcqcnController(line_rate_bps=1e9)
        controller.on_congestion()
        assert controller.current_rate_bps < 1e9
        assert controller.congestion_events == 1

    def test_repeated_congestion_cuts_deeper(self):
        controller = DcqcnController(line_rate_bps=1e9)
        controller.on_congestion()
        first = controller.current_rate_bps
        controller.on_congestion()
        assert controller.current_rate_bps < first

    def test_rate_floor(self):
        controller = DcqcnController(line_rate_bps=1e9)
        for _ in range(200):
            controller.on_congestion()
        assert controller.current_rate_bps >= controller.min_rate_bps

    def test_fast_recovery_approaches_target(self):
        controller = DcqcnController(line_rate_bps=1e9, fast_recovery_stages=3)
        controller.on_congestion()
        cut = controller.current_rate_bps
        target = controller.target_rate_bps
        controller.on_rate_timer()
        assert controller.current_rate_bps == pytest.approx(0.5 * (cut + target))

    def test_additive_increase_after_recovery(self):
        controller = DcqcnController(
            line_rate_bps=1e9, rate_ai_bps=10e6, fast_recovery_stages=1
        )
        controller.on_congestion()
        controller.on_congestion()  # target now well below line rate
        controller.on_rate_timer()  # stage 1: fast recovery
        target_before = controller.target_rate_bps
        controller.on_rate_timer()  # stage 2: additive increase
        assert controller.target_rate_bps == pytest.approx(target_before + 10e6)

    def test_rate_never_exceeds_line_rate(self):
        controller = DcqcnController(line_rate_bps=1e9, rate_ai_bps=1e9)
        for _ in range(50):
            controller.on_rate_timer()
        assert controller.current_rate_bps <= 1e9
        assert controller.target_rate_bps <= 1e9

    def test_alpha_decays(self):
        controller = DcqcnController(line_rate_bps=1e9)
        controller.on_congestion()
        alpha = controller.alpha
        controller.on_alpha_timer()
        assert controller.alpha < alpha

    def test_validation(self):
        with pytest.raises(ValueError, match="line_rate"):
            DcqcnController(line_rate_bps=0.0)
        with pytest.raises(ValueError, match="g must"):
            DcqcnController(line_rate_bps=1e9, g=0.0)


def _conn(now, mss_bytes, srtt=0.001):
    """What MLTCP reads from a sender: the clock, MSS, SRTT and flow."""
    return SimpleNamespace(
        sim=SimpleNamespace(now=now), mss_bytes=mss_bytes, smoothed_rtt=srtt,
        flow_id="q",
    )


class TestMltcpDcqcn:
    def test_ai_step_scaled_by_f(self):
        """The rate-based analogue of Eq. 1: R_AI * F(bytes_ratio)."""
        config = MLTCPConfig(total_bytes=1000, comp_time=1.0)
        controller = MltcpDcqcnController(
            line_rate_bps=1e9, config=config, rate_ai_bps=10e6
        )
        # No deliveries yet: ratio 0 -> F = 0.25.
        assert controller._ai_step() == pytest.approx(0.25 * 10e6)
        controller.observe_delivery(1, _conn(0.0, mss_bytes=1000))
        # Ratio 1 -> F = 2.
        assert controller._ai_step() == pytest.approx(2.0 * 10e6)

    def test_tracker_resets_at_boundary(self):
        config = MLTCPConfig(total_bytes=1000, comp_time=0.01)
        controller = MltcpDcqcnController(line_rate_bps=1e9, config=config)
        controller.observe_delivery(2, _conn(0.0, mss_bytes=500))
        assert controller.mltcp.tracker.bytes_ratio == 1.0
        controller.observe_delivery(1, _conn(1.0, mss_bytes=500))  # gap > comp_time
        assert controller.mltcp.tracker.bytes_ratio == pytest.approx(0.5)

    def test_unreliable_estimate_degrades_to_dcqcn(self):
        """Five 1,460-byte segments overrun a 1,000-byte TOTAL_BYTES: the
        tracker flags a missed boundary, and F is clamped to 1 as in every
        window-based MLTCP-X, so the step is plain DCQCN's ``R_AI``."""
        sim = Simulator()
        net = build_dumbbell(sim, 1, bottleneck_bps=1e9)
        controller = MltcpDcqcnController(
            1e9, config=MLTCPConfig(total_bytes=1000, comp_time=1.0), rate_ai_bps=10e6
        )
        sender = RateSender(sim, net.hosts["s0"], "q", "r0", controller)
        TcpReceiver(sim, net.hosts["r0"], "q", "s0")
        sender.send_bytes(5 * 1460)
        sim.run(until=0.01)
        assert sender.all_acked()
        assert controller._ai_step() == 10e6
        tracker = controller.mltcp.tracker
        assert tracker.estimate_unreliable
        assert tracker.bytes_ratio == 1.0
        assert [
            (episode["flow"], episode["reason"], episode["end"])
            for episode in controller.mltcp.degradation_episodes
        ] == [("q", "missed-boundary", None)]


class TestRateSender:
    def _run(self, nbytes=500_000, mark_threshold=20, until=1.0):
        sim = Simulator()
        net = build_dumbbell(
            sim,
            1,
            bottleneck_bps=1e9,
            bottleneck_queue=EcnQueue(capacity_packets=4096, mark_threshold=mark_threshold),
        )
        controller = DcqcnController(line_rate_bps=4e9)
        finished = {}
        sender = RateSender(
            sim,
            net.hosts["s0"],
            "q",
            "r0",
            controller,
            on_all_acked=lambda: finished.setdefault("t", sim.now),
        )
        TcpReceiver(sim, net.hosts["r0"], "q", "s0")
        sender.send_bytes(nbytes)
        sim.run(until=until)
        return sender, controller, finished.get("t")

    def test_transfer_completes(self):
        sender, _controller, t = self._run()
        assert t is not None
        assert sender.all_acked()

    def test_ecn_feedback_reduces_rate(self):
        """Pacing above the bottleneck triggers marks, then rate cuts."""
        _sender, controller, _t = self._run(nbytes=2_000_000, mark_threshold=10)
        assert controller.congestion_events > 0
        assert controller.alpha > 0.0

    def test_rtt_estimated(self):
        sender, _controller, _t = self._run()
        assert sender.smoothed_rtt is not None
        assert sender.smoothed_rtt > 0

    def test_rejects_non_positive_send(self):
        sim = Simulator()
        net = build_dumbbell(sim, 1, bottleneck_bps=1e9)
        sender = RateSender(
            sim, net.hosts["s0"], "q", "r0", DcqcnController(line_rate_bps=1e9)
        )
        with pytest.raises(ValueError, match="nbytes"):
            sender.send_bytes(0)


class TestRateBasedPeriodicJobs:
    """End to end: the paper's "(or sending rate)" clause — two periodic
    jobs driven by paced MLTCP-DCQCN senders interleave over an ECN fabric.

    Note (see EXPERIMENTS.md "Known fidelity limits"): at this compressed
    time scale plain DCQCN's transients also produce interleaving drift, so
    this test asserts MLTCP-DCQCN's convergence rather than a contrast
    against the unaugmented baseline.
    """

    def test_mltcp_dcqcn_jobs_interleave(self):
        import numpy as np

        from repro.simulator.app import TrainingApp
        from repro.simulator.topology import build_dumbbell
        from repro.workloads.job import JobSpec

        sim = Simulator()
        net = build_dumbbell(
            sim,
            2,
            bottleneck_bps=1e9,
            bottleneck_queue=EcnQueue(capacity_packets=4096, mark_threshold=32),
        )
        rng = np.random.default_rng(2)
        template = JobSpec(
            name="Job", comm_bits=8e6, demand_gbps=1.0, compute_time=0.010,
            jitter_sigma=0.0005,
        )
        apps = []
        for i, job in enumerate(
            (template.with_name("Job1"), template.with_name("Job2"))
        ):
            controller = MltcpDcqcnController(
                1e9,
                config=MLTCPConfig(total_bytes=job.comm_bytes, comp_time=0.003),
                rate_ai_bps=50e6,
            )
            sender = RateSender(
                sim, net.hosts[f"s{i}"], job.name, f"r{i}", controller,
                rate_timer=200e-6, alpha_timer=100e-6,
            )
            TcpReceiver(sim, net.hosts[f"r{i}"], job.name, f"s{i}")
            app = TrainingApp(sim, sender, job, max_iterations=40, rng=rng)
            app.start()
            apps.append(app)
        sim.run(until=3.0)

        per_job = [a.iteration_times() for a in apps]
        n = min(len(t) for t in per_job)
        assert n == 40
        rounds = np.array([np.mean([t[i] for t in per_job]) for i in range(n)])
        ideal = 8e6 / 1e9 * (1500 / 1460) + 0.010
        assert rounds[:3].mean() > 1.5 * ideal   # heavily congested start
        assert rounds[-5:].mean() < 1.1 * ideal  # interleaved steady state
