"""Tests for delayed ACKs (cumulative num_acks) and aggressiveness linting."""

import numpy as np
import pytest

from repro.core.aggressiveness import (
    AggressivenessFunction,
    ConstantAggressiveness,
    DecreasingLinearAggressiveness,
    LinearAggressiveness,
)
from repro.core.config import MLTCPConfig
from repro.core.validation import validate_aggressiveness
from repro.simulator.app import TrainingApp
from repro.simulator.engine import Simulator
from repro.simulator.queues import DropTailQueue
from repro.simulator.topology import build_dumbbell
from repro.tcp.base import TcpReceiver, TcpSender
from repro.tcp.mltcp import MLTCPReno
from repro.tcp.reno import RenoCC
from repro.workloads.job import JobSpec


class TestDelayedAcks:
    def _transfer(self, delayed_ack, nbytes=1_000_000):
        sim = Simulator()
        net = build_dumbbell(
            sim, 1, bottleneck_bps=1e9, bottleneck_queue=DropTailQueue(64)
        )
        sender = TcpSender(sim, net.hosts["s0"], "f", "r0", RenoCC())
        receiver = TcpReceiver(
            sim, net.hosts["r0"], "f", "s0", delayed_ack=delayed_ack
        )
        done = {}
        sender.on_all_acked = lambda: done.setdefault("t", sim.now)
        sender.send_bytes(nbytes)
        sim.run(until=1.0)
        return sender, receiver, done.get("t")

    def test_transfer_completes_with_delack(self):
        sender, _receiver, t = self._transfer(delayed_ack=2)
        assert t is not None
        assert sender.all_acked()

    def test_acks_roughly_halved(self):
        _s1, immediate, _t1 = self._transfer(delayed_ack=1)
        _s2, delayed, _t2 = self._transfer(delayed_ack=2)
        assert delayed.acks_sent < 0.7 * immediate.acks_sent

    def test_throughput_not_destroyed(self):
        _s1, _r1, t1 = self._transfer(delayed_ack=1)
        _s2, _r2, t2 = self._transfer(delayed_ack=2)
        assert t2 < 1.5 * t1

    def test_validation(self):
        sim = Simulator()
        net = build_dumbbell(sim, 1, bottleneck_bps=1e9)
        with pytest.raises(ValueError, match="delayed_ack"):
            TcpReceiver(sim, net.hosts["r0"], "f", "s0", delayed_ack=0)
        with pytest.raises(ValueError, match="delack_timeout"):
            TcpReceiver(
                sim, net.hosts["r0"], "g", "s0", delayed_ack=2, delack_timeout=0.0
            )

    def test_mltcp_tracker_sees_cumulative_bytes(self):
        """Algorithm 1's num_acks path: a coalesced ACK advances bytes_sent
        by several segments at once, and the ratio stays correct."""
        sim = Simulator()
        net = build_dumbbell(sim, 1, bottleneck_bps=1e9)
        job = JobSpec(name="J", comm_bits=2e6, demand_gbps=1.0, compute_time=0.02)
        cc = MLTCPReno(MLTCPConfig(total_bytes=job.comm_bytes, comp_time=0.005))
        sender = TcpSender(sim, net.hosts["s0"], "J", "r0", cc)
        TcpReceiver(sim, net.hosts["r0"], "J", "s0", delayed_ack=2)
        app = TrainingApp(sim, sender, job, max_iterations=4)
        app.start()
        sim.run(until=1.0)
        assert app.completed == 4
        for record in cc.mltcp.tracker.completed_iterations:
            assert record.bytes_sent >= job.comm_bytes * 0.95

    def test_two_jobs_still_interleave_with_delack(self):
        sim = Simulator()
        net = build_dumbbell(
            sim, 2, bottleneck_bps=1e9, bottleneck_queue=DropTailQueue(64)
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
            cc = MLTCPReno(MLTCPConfig(total_bytes=job.comm_bytes, comp_time=0.003))
            sender = TcpSender(sim, net.hosts[f"s{i}"], job.name, f"r{i}", cc)
            TcpReceiver(sim, net.hosts[f"r{i}"], job.name, f"s{i}", delayed_ack=2)
            app = TrainingApp(sim, sender, job, max_iterations=35, rng=rng)
            app.start()
            apps.append(app)
        sim.run(until=2.0)
        overhead = 1500 / 1460
        ideal = 8e6 / 1e9 * overhead + 0.010
        final = np.mean([a.iteration_times()[-5:].mean() for a in apps])
        assert final == pytest.approx(ideal, rel=0.1)


class _ExplodingFunction(AggressivenessFunction):
    name = "exploding"

    def _evaluate(self, bytes_ratio):
        if bytes_ratio > 0.5:
            raise RuntimeError("boom")
        return 1.0


class _TinyRangeFunction(AggressivenessFunction):
    name = "tiny"

    def _evaluate(self, bytes_ratio):
        return 1.0 + 0.01 * bytes_ratio


class TestAggressivenessValidation:
    def test_paper_function_is_valid(self):
        assert validate_aggressiveness(LinearAggressiveness()) == []

    def test_decreasing_function_flagged(self):
        issues = validate_aggressiveness(DecreasingLinearAggressiveness())
        assert any("monotonicity" in i.requirement for i in issues)

    def test_tiny_range_flagged(self):
        issues = validate_aggressiveness(_TinyRangeFunction())
        assert any("range" in i.requirement for i in issues)

    def test_constant_passes_monotonicity_but_fails_range(self):
        issues = validate_aggressiveness(ConstantAggressiveness(1.0))
        assert all("monotonicity" not in i.requirement for i in issues)
        assert any("range" in i.requirement for i in issues)

    def test_raising_function_reported_not_raised(self):
        issues = validate_aggressiveness(_ExplodingFunction())
        assert any(i.requirement == "totality" for i in issues)

    def test_min_range_configurable(self):
        assert validate_aggressiveness(_TinyRangeFunction(), min_range=0.001) == []

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="samples"):
            validate_aggressiveness(LinearAggressiveness(), samples=1)
