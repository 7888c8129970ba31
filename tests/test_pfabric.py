"""Tests for the packet-level pFabric substrate (priority queues + minimal
transport) and the Figure 2(b) head-of-line argument at packet granularity."""

import numpy as np
import pytest

from repro.simulator.app import TrainingApp
from repro.simulator.engine import Simulator
from repro.simulator.queues import PriorityQueue
from repro.simulator.topology import build_dumbbell
from repro.tcp.base import TcpReceiver
from repro.tcp.pfabric import PFabricSender
from repro.workloads.job import JobSpec


def make_pair(n_pairs=1, queue_packets=32):
    sim = Simulator()
    net = build_dumbbell(
        sim,
        n_pairs,
        bottleneck_bps=1e9,
        bottleneck_queue=PriorityQueue(queue_packets),
    )
    return sim, net


class TestPFabricSender:
    def test_transfer_completes(self):
        sim, net = make_pair()
        done = {}
        sender = PFabricSender(
            sim, net.hosts["s0"], "f", "r0",
            on_all_acked=lambda: done.setdefault("t", sim.now),
        )
        TcpReceiver(sim, net.hosts["r0"], "f", "s0")
        sender.send_bytes(1_000_000)
        sim.run(until=0.5)
        assert "t" in done
        assert sender.all_acked()

    def test_near_line_rate_for_lone_flow(self):
        sim, net = make_pair()
        done = {}
        sender = PFabricSender(
            sim, net.hosts["s0"], "f", "r0",
            on_all_acked=lambda: done.setdefault("t", sim.now),
        )
        TcpReceiver(sim, net.hosts["r0"], "f", "s0")
        sender.send_bytes(2_000_000)
        sim.run(until=0.5)
        assert 2_000_000 * 8 / done["t"] > 0.8e9

    def test_short_flow_preempts_long(self):
        """The SRPT property: the short flow finishes near isolation speed."""
        sim, net = make_pair(n_pairs=2)
        done = {}
        long_sender = PFabricSender(
            sim, net.hosts["s1"], "long", "r1",
            on_all_acked=lambda: done.setdefault("long", sim.now),
        )
        short_sender = PFabricSender(
            sim, net.hosts["s0"], "short", "r0",
            on_all_acked=lambda: done.setdefault("short", sim.now),
        )
        TcpReceiver(sim, net.hosts["r1"], "long", "s1")
        TcpReceiver(sim, net.hosts["r0"], "short", "s0")
        long_sender.send_bytes(4_000_000)
        short_sender.send_bytes(400_000)
        sim.run(until=1.0)
        # Isolation time for 400 KB at 1 Gbps is ~3.4 ms (incl. headers).
        assert done["short"] < 0.006
        assert done["long"] > 5 * done["short"]

    def test_timeout_recovers_losses(self):
        """Overload the tiny priority buffer: drops recovered via RTO."""
        sim, net = make_pair(n_pairs=2, queue_packets=8)
        done = {}
        senders = []
        for i, size in enumerate((2_000_000, 2_000_000)):
            s = PFabricSender(
                sim, net.hosts[f"s{i}"], f"f{i}", f"r{i}", window=64,
                on_all_acked=lambda i=i: done.setdefault(i, sim.now),
            )
            TcpReceiver(sim, net.hosts[f"r{i}"], f"f{i}", f"s{i}")
            s.send_bytes(size)
            senders.append(s)
        sim.run(until=2.0)
        assert set(done) == {0, 1}
        assert any(s.timeouts > 0 for s in senders)

    def test_validation(self):
        sim, net = make_pair()
        with pytest.raises(ValueError, match="window"):
            PFabricSender(sim, net.hosts["s0"], "f", "r0", window=0)
        sender = PFabricSender(sim, net.hosts["s0"], "f2", "r0")
        with pytest.raises(ValueError, match="nbytes"):
            sender.send_bytes(0)


def run_figure2b_jobs(until, queue_packets=64, **dumbbell):
    """Four periodic pFabric jobs, 12 iterations each: J1 with the largest
    collective and a trio of smaller ones (paper Figure 2(b))."""
    sim = Simulator()
    net = build_dumbbell(
        sim, 4, bottleneck_bps=1e9, bottleneck_queue=PriorityQueue(queue_packets),
        **dumbbell,
    )
    rng = np.random.default_rng(4)
    big = JobSpec("J1", comm_bits=8e6, demand_gbps=1.0, compute_time=0.010,
                  jitter_sigma=0.0003)
    small = JobSpec("Jx", comm_bits=4e6, demand_gbps=1.0, compute_time=0.020,
                    jitter_sigma=0.0003)
    jobs = [big] + [small.with_name(f"J{i}") for i in (2, 3, 4)]
    apps = {}
    for i, job in enumerate(jobs):
        sender = PFabricSender(sim, net.hosts[f"s{i}"], job.name, f"r{i}")
        TcpReceiver(sim, net.hosts[f"r{i}"], job.name, f"s{i}")
        app = TrainingApp(sim, sender, job, max_iterations=12, rng=rng)
        app.start()
        apps[job.name] = app
    sim.run(until=until)
    return apps


class TestFigure2bAtPacketLevel:
    def test_pfabric_defers_the_big_periodic_job(self):
        """Four periodic jobs over pFabric: the job with the largest
        collective (J1) is head-of-line blocked by the smaller trio —
        the packet-granularity version of paper Figure 2(b)."""
        apps = run_figure2b_jobs(until=2.0)
        big = apps["J1"].job
        overhead = 1500 / 1460
        j1_ideal = big.ideal_comm_time * overhead + big.compute_time
        j1_measured = apps["J1"].iteration_times()[:8].mean()
        # The early iterations show the head-of-line penalty on J1.
        assert j1_measured > 1.25 * j1_ideal

    def test_each_transfer_completes_once(self):
        """Go-back-N resends segments the receiver already has, and each
        resend draws a duplicate ACK that finds everything acknowledged;
        only the ACK that acknowledges the last segment completes the
        transfer, so every job runs its 12 iterations and no more."""
        apps = run_figure2b_jobs(
            until=3.0, queue_packets=8, bottleneck_random_loss=0.02, loss_seed=1
        )
        for app in apps.values():
            assert app.sender.timeouts > 0
            assert app.sender.target == 12 * -(-app.job.comm_bytes // app.sender.mss_bytes)
        assert [app.completed for app in apps.values()] == [12] * 4
