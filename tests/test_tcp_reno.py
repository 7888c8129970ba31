"""Tests for the TCP connection machinery and Reno congestion control."""

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.queues import DropTailQueue
from repro.simulator.topology import build_dumbbell
from repro.tcp.base import INITIAL_CWND, TcpReceiver, TcpSender
from repro.tcp.reno import RenoCC


def make_pair(
    bottleneck_bps=1e9,
    queue_packets=64,
    random_loss=0.0,
    cc=None,
    **sender_kwargs,
):
    sim = Simulator()
    net = build_dumbbell(
        sim,
        1,
        bottleneck_bps=bottleneck_bps,
        bottleneck_queue=DropTailQueue(queue_packets),
        bottleneck_random_loss=random_loss,
    )
    cc = cc if cc is not None else RenoCC()
    sender = TcpSender(sim, net.hosts["s0"], "f", "r0", cc, **sender_kwargs)
    TcpReceiver(sim, net.hosts["r0"], "f", "s0")
    return sim, net, sender


class TestBulkTransfer:
    def test_transfer_completes(self):
        sim, _net, sender = make_pair()
        finished = {}
        sender.on_all_acked = lambda: finished.setdefault("t", sim.now)
        sender.send_bytes(500_000)
        sim.run(until=1.0)
        assert "t" in finished
        assert sender.all_acked()

    def test_goodput_near_capacity(self):
        """A single Reno flow should achieve >80% of the bottleneck."""
        sim, _net, sender = make_pair()
        finished = {}
        sender.on_all_acked = lambda: finished.setdefault("t", sim.now)
        nbytes = 2_000_000
        sender.send_bytes(nbytes)
        sim.run(until=1.0)
        goodput = nbytes * 8 / finished["t"]
        assert goodput > 0.8e9

    def test_no_spurious_retransmissions_without_loss(self):
        """A transfer fitting entirely in the initial window is clean."""
        sim, _net, sender = make_pair()
        sender.send_bytes(5 * 1460)
        sim.run(until=0.5)
        assert sender.retransmissions == 0
        assert sender.timeouts == 0

    def test_receiver_rejects_acks(self):
        sim, net, _sender = make_pair()
        receiver_sink = net.hosts["r0"]._flows["f"]
        from repro.simulator.packet import Packet

        ack = Packet.ack("f", "s0", "r0", 0)
        with pytest.raises(RuntimeError, match="got an ACK"):
            receiver_sink.receive(ack)


class TestWindowDynamics:
    def test_slow_start_doubles(self):
        """cwnd roughly doubles per RTT until ssthresh."""
        sim, _net, sender = make_pair(queue_packets=1000)
        sender.send_bytes(1_000_000)
        initial = sender.cc.cwnd
        sim.run(until=0.002)  # a few RTTs, no loss yet
        assert sender.cc.cwnd > 2 * initial

    def test_congestion_avoidance_linear(self):
        cc = RenoCC()
        cc.ssthresh = 10.0
        cc.cwnd = 10.0

        class FakeConn:
            pass

        before = cc.cwnd
        cc.on_ack(1, FakeConn())
        assert cc.cwnd == pytest.approx(before + 1.0 / before)

    def test_fast_retransmit_halves_window(self):
        """Loss under dup-ACKs triggers multiplicative decrease, not RTO."""
        sim, net, sender = make_pair(queue_packets=16)
        sender.send_bytes(3_000_000)
        sim.run(until=0.5)
        assert sender.fast_retransmits > 0
        # With ample dup-ACK feedback Reno should rarely need timeouts.
        assert sender.timeouts <= sender.fast_retransmits

    def test_rto_recovers_from_total_blackout(self):
        """All packets of a window lost -> timer-driven recovery."""
        sim, net, sender = make_pair(random_loss=0.9)
        sender.send_bytes(5 * 1460)
        sim.run(until=20.0)
        assert sender.all_acked()
        assert sender.timeouts > 0

    def test_idle_restart_resets_cwnd(self):
        sim, _net, sender = make_pair()
        done = []
        sender.on_all_acked = lambda: done.append(sim.now)
        sender.send_bytes(1_000_000)
        sim.run(until=0.5)
        assert sender.cc.cwnd > INITIAL_CWND
        # Idle much longer than the RTO, then send again.
        sim.schedule(0.5, lambda: sender.send_bytes(1460))
        sim.run(until=1.2)
        assert sender.cc.cwnd <= INITIAL_CWND + 1

    def test_disable_idle_restart(self):
        sim, _net, sender = make_pair(slow_start_after_idle=False)
        sender.on_all_acked = lambda: None
        sender.send_bytes(1_000_000)
        sim.run(until=0.5)
        grown = sender.cc.cwnd
        sim.schedule(0.5, lambda: sender.send_bytes(1460))
        sim.run(until=1.2)
        assert sender.cc.cwnd >= grown


class TestRttEstimation:
    def test_srtt_close_to_path_rtt(self):
        sim, _net, sender = make_pair(queue_packets=1000)
        sender.send_bytes(20 * 1460)
        sim.run(until=0.5)
        assert sender.smoothed_rtt is not None
        # 4 hops of 5 us propagation plus serialization; well under 1 ms here.
        assert 1e-5 < sender.smoothed_rtt < 1e-3

    def test_rto_bounded(self):
        sim, _net, sender = make_pair(min_rto=2e-3, max_rto=1.0)
        sender.send_bytes(20 * 1460)
        sim.run(until=0.5)
        assert 2e-3 <= sender.rto <= 1.0


class TestValidation:
    def test_rejects_bad_mss(self):
        sim = Simulator()
        net = build_dumbbell(sim, 1, bottleneck_bps=1e9)
        with pytest.raises(ValueError, match="mss"):
            TcpSender(sim, net.hosts["s0"], "f", "r0", RenoCC(), mss_bytes=0)

    def test_rejects_bad_rto_range(self):
        sim = Simulator()
        net = build_dumbbell(sim, 1, bottleneck_bps=1e9)
        with pytest.raises(ValueError, match="rto"):
            TcpSender(
                sim, net.hosts["s0"], "f", "r0", RenoCC(), min_rto=0.1, max_rto=0.01
            )

    def test_rejects_non_positive_send(self):
        _sim, _net, sender = make_pair()
        with pytest.raises(ValueError, match="nbytes"):
            sender.send_bytes(0)

    def test_bytes_outstanding(self):
        _sim, _net, sender = make_pair()
        sender.send_bytes(10 * 1460)
        assert sender.bytes_outstanding() == 10 * 1460
