"""Unit tests for the application layer (TrainingApp)."""

import numpy as np
import pytest

from repro.simulator.app import TrainingApp
from repro.simulator.engine import Simulator
from repro.simulator.topology import build_dumbbell
from repro.tcp.base import TcpReceiver, TcpSender
from repro.tcp.reno import RenoCC
from repro.workloads.job import IterationResult, JobSpec

OVERHEAD = 1500 / 1460


def wire(job, max_iterations=None, rng=None):
    sim = Simulator()
    net = build_dumbbell(sim, 1, bottleneck_bps=1e9)
    sender = TcpSender(sim, net.hosts["s0"], job.name, "r0", RenoCC())
    TcpReceiver(sim, net.hosts["r0"], job.name, "s0")
    app = TrainingApp(sim, sender, job, max_iterations=max_iterations, rng=rng)
    return sim, app


def small_job(**overrides):
    params = dict(
        name="J", comm_bits=1e6, demand_gbps=1.0, compute_time=0.005
    )
    params.update(overrides)
    return JobSpec(**params)


class TestAppIteration:
    def test_durations(self):
        it = IterationResult(job="J", index=0, comm_start=1.0, comm_end=1.4, iteration_end=2.0)
        assert it.comm_duration == pytest.approx(0.4)
        assert it.duration == pytest.approx(1.0)


class TestLifecycle:
    def test_runs_exact_iteration_count(self):
        sim, app = wire(small_job(), max_iterations=5)
        app.start()
        sim.run(until=1.0)
        assert app.completed == 5

    def test_unbounded_runs_until_horizon(self):
        sim, app = wire(small_job())
        app.start()
        sim.run(until=0.1)
        assert app.completed >= 10

    def test_start_twice_rejected(self):
        sim, app = wire(small_job(), max_iterations=1)
        app.start()
        with pytest.raises(RuntimeError, match="already started"):
            app.start()

    def test_start_offset_respected(self):
        sim, app = wire(small_job(start_offset=0.05), max_iterations=2)
        app.start()
        sim.run(until=0.5)
        assert app.iterations[0].comm_start == pytest.approx(0.05)

    def test_rejects_bad_max_iterations(self):
        sim = Simulator()
        net = build_dumbbell(sim, 1, bottleneck_bps=1e9)
        sender = TcpSender(sim, net.hosts["s0"], "J", "r0", RenoCC())
        TcpReceiver(sim, net.hosts["r0"], "J", "s0")
        with pytest.raises(ValueError, match="max_iterations"):
            TrainingApp(sim, sender, small_job(), max_iterations=0)


class TestAccounting:
    def test_iteration_times_match_structure(self):
        job = small_job()
        sim, app = wire(job, max_iterations=4)
        app.start()
        sim.run(until=1.0)
        times = app.iteration_times()
        ideal = job.ideal_comm_time * OVERHEAD + job.compute_time
        assert times == pytest.approx(np.full(4, ideal), rel=0.1)

    def test_comm_times_exclude_compute(self):
        job = small_job()
        sim, app = wire(job, max_iterations=3)
        app.start()
        sim.run(until=1.0)
        comms = app.comm_times()
        assert np.all(comms < job.ideal_comm_time * OVERHEAD * 1.2)
        assert np.all(comms > 0)

    def test_iterations_gate_on_previous(self):
        """The defining DNN property: comm i+1 starts after iteration i."""
        sim, app = wire(small_job(), max_iterations=4)
        app.start()
        sim.run(until=1.0)
        for previous, current in zip(app.iterations, app.iterations[1:]):
            assert current.comm_start >= previous.iteration_end - 1e-12

    def test_jitter_rng_used(self):
        job = small_job(jitter_sigma=0.002, compute_time=0.01)
        sim, app = wire(job, max_iterations=8, rng=np.random.default_rng(0))
        app.start()
        sim.run(until=1.0)
        times = app.iteration_times()
        assert times.std() > 1e-4  # jitter visible
