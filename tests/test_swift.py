"""Tests for the Swift-like delay-based CC and MLTCP-Swift."""

import pytest

from repro.core.config import MLTCPConfig
from repro.harness.packetlab import mltcp_config_for, run_packet_jobs
from repro.simulator.engine import Simulator
from repro.simulator.queues import DropTailQueue
from repro.simulator.topology import build_dumbbell
from repro.tcp.base import TcpReceiver, TcpSender
from repro.tcp.swift import MLTCPSwift, SwiftCC
from repro.workloads.job import JobSpec


def run_transfer(cc, nbytes=2_000_000, queue=256, until=1.0, **sender_kwargs):
    sim = Simulator()
    net = build_dumbbell(
        sim, 1, bottleneck_bps=1e9, bottleneck_queue=DropTailQueue(queue)
    )
    sender = TcpSender(sim, net.hosts["s0"], "f", "r0", cc, **sender_kwargs)
    TcpReceiver(sim, net.hosts["r0"], "f", "s0")
    done = {}
    sender.on_all_acked = lambda: done.setdefault("t", sim.now)
    sender.send_bytes(nbytes)
    sim.run(until=until)
    return sender, done.get("t")


class TestSwiftUnit:
    def test_validation(self):
        with pytest.raises(ValueError, match="target_delay"):
            SwiftCC(target_delay=0.0)
        with pytest.raises(ValueError, match="ai"):
            SwiftCC(ai=0.0)
        with pytest.raises(ValueError, match="beta"):
            SwiftCC(beta=1.5)
        with pytest.raises(ValueError, match="max_mdf"):
            SwiftCC(max_mdf=0.0)

    def test_grows_below_target(self):
        cc = SwiftCC(target_delay=1e-3)
        cc.ssthresh = 5.0
        cc.cwnd = 10.0

        class Conn:
            smoothed_rtt = 5e-4

            class sim:
                now = 0.0

        cc.on_ack(2, Conn())
        assert cc.cwnd > 10.0

    def test_backs_off_above_target(self):
        cc = SwiftCC(target_delay=1e-4)
        cc.cwnd = 10.0

        class Conn:
            smoothed_rtt = 1e-3  # 10x the target

            class sim:
                now = 1.0

        cc.on_ack(1, Conn())
        assert cc.cwnd < 10.0

    def test_decrease_rate_limited_per_rtt(self):
        cc = SwiftCC(target_delay=1e-4)
        cc.cwnd = 10.0

        class Conn:
            smoothed_rtt = 1e-3

            class sim:
                now = 1.0

        cc.on_ack(1, Conn())
        after_first = cc.cwnd
        Conn.sim.now = 1.0 + 1e-5  # far less than one RTT later
        cc.on_ack(1, Conn())
        assert cc.cwnd == after_first


class TestSwiftEndToEnd:
    def test_transfer_completes_with_good_throughput(self):
        sender, t = run_transfer(SwiftCC(target_delay=400e-6))
        assert t is not None
        assert 2_000_000 * 8 / t > 0.7e9

    def test_swift_keeps_queue_near_target(self):
        """The point of delay-based CC: far fewer drops than loss-based."""
        queue = DropTailQueue(256)
        sim = Simulator()
        net = build_dumbbell(sim, 1, bottleneck_bps=1e9, bottleneck_queue=queue)
        sender = TcpSender(sim, net.hosts["s0"], "f", "r0", SwiftCC(target_delay=300e-6))
        TcpReceiver(sim, net.hosts["r0"], "f", "s0")
        sender.send_bytes(4_000_000)
        sim.run(until=1.0)
        assert queue.drops == 0
        assert sender.all_acked()


class TestMltcpSwift:
    def test_ai_scale_follows_ratio(self):
        cc = MLTCPSwift(MLTCPConfig(total_bytes=3000, comp_time=1.0))
        cc.ssthresh = 1.0
        cc.cwnd = 10.0

        class Conn:
            smoothed_rtt = 1e-4
            mss_bytes = 1500

            class sim:
                now = 0.0

        cc.on_ack(1, Conn())  # 1500/3000 -> ratio 0.5
        assert cc.mltcp.tracker.bytes_ratio == pytest.approx(0.5)
        assert cc._ai_scale(Conn()) == pytest.approx(1.75 * 0.5 + 0.25)

    def test_two_jobs_interleave_under_mltcp_swift(self):
        """§6 again: the delay-based family also interleaves once augmented."""
        template = JobSpec(
            name="Job", comm_bits=8e6, demand_gbps=1.0, compute_time=0.010,
            jitter_sigma=0.0005,
        )
        jobs = [template.with_name("Job1"), template.with_name("Job2")]
        lab = run_packet_jobs(
            jobs,
            lambda j: MLTCPSwift(mltcp_config_for(j), target_delay=400e-6),
            max_iterations=35,
            seed=2,
        )
        overhead = 1500 / 1460
        ideal = 8e6 / 1e9 * overhead + 0.010
        rounds = lab.mean_iteration_by_round()
        assert rounds[:3].mean() > 1.15 * ideal
        assert rounds[-5:].mean() == pytest.approx(ideal, rel=0.1)
