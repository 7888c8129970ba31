"""Tests for demand-trace generation (Figure 1 substrate)."""

import numpy as np
import pytest

from repro.workloads.job import JobSpec, gbit
from repro.workloads.traffic import (
    DOUBLE_HUMP,
    SQUARE,
    PulseShape,
    demand_trace,
)


def make_job(**overrides):
    params = dict(
        name="J", comm_bits=gbit(10.0), demand_gbps=25.0, compute_time=1.0
    )
    params.update(overrides)
    return JobSpec(**params)


class TestPulseShape:
    def test_square_is_flat(self):
        for f in (0.0, 0.3, 0.9):
            assert SQUARE.rate_at(f) == pytest.approx(1.0)

    def test_double_hump_has_texture(self):
        rates = [DOUBLE_HUMP.rate_at(f) for f in np.linspace(0, 0.999, 50)]
        assert max(rates) > 1.1
        assert min(rates) < 0.9

    def test_shape_mean_normalized(self):
        """Any shape delivers the same per-iteration volume as square."""
        fractions = np.linspace(0, 1, 10001, endpoint=False)
        mean = np.mean([DOUBLE_HUMP.rate_at(f) for f in fractions])
        assert mean == pytest.approx(1.0, abs=1e-3)

    def test_rejects_bad_durations(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PulseShape("bad", ((0.5, 1.0),))

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="non-negative"):
            PulseShape("bad", ((1.0, -1.0),))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="demand"):
            PulseShape("bad", ((1.0, 0.0),))


class TestDemandTrace:
    def test_volume_matches_comm_bits(self):
        """Integral of the demand over one iteration ~= comm volume."""
        job = make_job()
        dt = 0.001
        times, demand = demand_trace(job, job.ideal_iteration_time, dt=dt)
        volume_gbit = demand.sum() * dt  # Gbps * s
        assert volume_gbit == pytest.approx(job.comm_bits / 1e9, rel=0.02)

    def test_peak_equals_demand(self):
        job = make_job()
        _times, demand = demand_trace(job, 2.0, dt=0.001)
        assert demand.max() == pytest.approx(job.demand_gbps)

    def test_compute_phase_is_silent(self):
        job = make_job()
        times, demand = demand_trace(job, job.ideal_iteration_time, dt=0.001)
        comm_end = job.ideal_comm_time
        silent = demand[(times > comm_end + 0.002)]
        assert np.all(silent == 0.0)

    def test_periodicity(self):
        job = make_job()
        period = job.ideal_iteration_time
        times, demand = demand_trace(job, 3 * period, dt=0.001)
        bins_per_period = int(round(period / 0.001))
        first = demand[:bins_per_period]
        second = demand[bins_per_period : 2 * bins_per_period]
        assert np.allclose(first, second)

    def test_start_offset_shifts_trace(self):
        job = make_job().with_offset(0.5)
        times, demand = demand_trace(job, 1.0, dt=0.001)
        assert np.all(demand[times < 0.499] == 0.0)
        assert demand[times > 0.51][0] > 0.0

    def test_jitter_changes_trace(self):
        job = make_job(jitter_sigma=0.1)
        _t, d1 = demand_trace(job, 5.0, rng=np.random.default_rng(1))
        _t, d2 = demand_trace(job, 5.0, rng=np.random.default_rng(2))
        assert not np.allclose(d1, d2)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError, match="duration"):
            demand_trace(make_job(), 0.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            demand_trace(make_job(), 1.0, dt=2.0)
