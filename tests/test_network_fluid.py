"""Tests for the multi-bottleneck fluid simulator and weighted max-min."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.fluid import network
from repro.fluid.allocation import PDQ, PIAS, SRPT, AllocationPolicy, FairShare
from repro.fluid.network import (
    NetworkFluidSimulator,
    PlacedJob,
    run_network_fluid,
    weighted_max_min,
)
from repro.workloads.presets import (
    gpt2_heavy_job,
    gpt2_job,
    gpt3_job,
    two_job_scenario,
)


def place(job, *links):
    return PlacedJob(job=job, links=tuple(links))


class _RatesOnly(AllocationPolicy):
    """A policy with rates but no weights."""

    def allocate(self, flows, capacity_bps):
        return {f.flow_id: 0.0 for f in flows}


class _FairShareSubclass(FairShare):
    """A subclass: the network engines never call an ``allocate`` override."""


class TestWeightedMaxMin:
    def test_single_link_equal_weights(self):
        rates = weighted_max_min(
            {"a": (1.0, 100e9, ("l",)), "b": (1.0, 100e9, ("l",))},
            {"l": 50e9},
        )
        assert rates["a"] == pytest.approx(25e9)
        assert rates["b"] == pytest.approx(25e9)

    def test_weights_respected(self):
        rates = weighted_max_min(
            {"a": (3.0, 100e9, ("l",)), "b": (1.0, 100e9, ("l",))},
            {"l": 40e9},
        )
        assert rates["a"] == pytest.approx(30e9)
        assert rates["b"] == pytest.approx(10e9)

    def test_demand_caps_apply(self):
        rates = weighted_max_min(
            {"a": (1.0, 10e9, ("l",)), "b": (1.0, 100e9, ("l",))},
            {"l": 50e9},
        )
        assert rates["a"] == pytest.approx(10e9)
        assert rates["b"] == pytest.approx(40e9)

    def test_multi_link_bottleneck_identified(self):
        """A flow crossing a narrow and a wide link is limited by the
        narrow one; a second flow on the wide link takes the leftover."""
        rates = weighted_max_min(
            {
                "narrowed": (1.0, 100e9, ("narrow", "wide")),
                "wide_only": (1.0, 100e9, ("wide",)),
            },
            {"narrow": 10e9, "wide": 50e9},
        )
        assert rates["narrowed"] == pytest.approx(10e9)
        assert rates["wide_only"] == pytest.approx(40e9)

    def test_no_link_exceeds_capacity(self):
        flows = {
            f"f{i}": (float(i + 1), 30e9, ("x", "y") if i % 2 else ("x",))
            for i in range(5)
        }
        capacities = {"x": 50e9, "y": 20e9}
        rates = weighted_max_min(flows, capacities)
        for link, cap in capacities.items():
            usage = sum(
                rates[fid]
                for fid, (_w, _d, links) in flows.items()
                if link in links
            )
            assert usage <= cap * (1 + 1e-6)

    def test_unknown_link_rejected(self):
        with pytest.raises(KeyError, match="ghost"):
            weighted_max_min({"a": (1.0, 1e9, ("ghost",))}, {"l": 1e9})

    def test_zero_weight_does_not_starve(self):
        rates = weighted_max_min(
            {"zero": (0.0, 100e9, ("l",)), "one": (1.0, 100e9, ("l",))},
            {"l": 50e9},
        )
        assert rates["zero"] > 0.0


class TestSimulatorBasics:
    def test_isolated_job_at_ideal(self):
        placed = place(gpt2_job(jitter_sigma=0.0), "up")
        result = run_network_fluid([placed], {"up": 50.0}, max_iterations=4, seed=None)
        assert result.iteration_times("J2") == pytest.approx(
            np.full(4, 1.8), rel=1e-6
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            NetworkFluidSimulator([], {"l": 50.0})
        with pytest.raises(ValueError, match="no capacity"):
            NetworkFluidSimulator([place(gpt2_job(), "ghost")], {"l": 50.0})
        with pytest.raises(ValueError, match="unique"):
            NetworkFluidSimulator(
                [place(gpt2_job(), "l"), place(gpt2_job(), "l")], {"l": 50.0}
            )
        with pytest.raises(ValueError, match="at least one link"):
            PlacedJob(job=gpt2_job(), links=())
        with pytest.raises(ValueError, match="duplicate"):
            PlacedJob(job=gpt2_job(), links=("l", "l"))

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_capacity_naming_link(self, capacity):
        """A NaN capacity passes a ``<= 0`` check and would run as if the
        link had no cap."""
        with pytest.raises(ValueError, match="link 'l': capacity"):
            NetworkFluidSimulator([place(gpt2_job(), "l")], {"l": capacity})

    @pytest.mark.parametrize(
        "policy",
        [SRPT(), PDQ(), PIAS(), _RatesOnly(), _FairShareSubclass()],
        ids=["srpt", "pdq", "pias", "bare-subclass", "fair-subclass"],
    )
    def test_takes_only_fair_share_or_mltcp(self, policy):
        """Exactly those two classes, the single link's array-engine rule;
        the error names the class."""
        with pytest.raises(ValueError, match=f"got {type(policy).__name__}$"):
            NetworkFluidSimulator([place(gpt2_job(), "l")], {"l": 50.0}, policy=policy)

    def test_rejects_volume_jitter(self):
        """Both engines load the nominal ``comm_bits`` every iteration, so
        a jittered job would otherwise run silently unjittered."""
        job = replace(gpt2_job(), volume_jitter_fraction=0.2)
        with pytest.raises(ValueError, match="J2: volume_jitter_fraction"):
            NetworkFluidSimulator([place(job, "l")], {"l": 50.0})


class TestIterationLimit:
    """``JobSpec.iteration_limit`` is when a job departs, on every engine."""

    @pytest.mark.parametrize(
        "min_flows", [network._VECTORIZED_MIN_FLOWS, 1], ids=["default", "array"]
    )
    def test_job_departs_after_its_limit(self, monkeypatch, min_flows):
        monkeypatch.setattr(network, "_VECTORIZED_MIN_FLOWS", min_flows)
        a, b = two_job_scenario()
        result = run_network_fluid(
            [place(a.with_iteration_limit(2), "core"), place(b, "core")],
            {"core": 50.0},
            max_iterations=5,
        )
        assert len(result.iterations_of(a.name)) == 2
        assert len(result.iterations_of(b.name)) == 5
        # Once ``a`` has left, ``b`` has the link to itself: its comm phases
        # drain at its full demand.
        departed = result.iterations_of(a.name)[-1].iteration_end
        solo = b.comm_bits / (b.demand_gbps * 1e9)
        alone = [
            it.comm_duration
            for it in result.iterations_of(b.name)
            if it.comm_start >= departed
        ]
        assert alone and alone == pytest.approx([solo] * len(alone), rel=1e-9)


class TestMultiBottleneckConvergence:
    def test_two_independent_uplinks(self):
        """Two congested uplinks interleave independently under MLTCP."""
        placements = []
        for g, up in ((0, "up0"), (1, "up1")):
            for k in range(2):
                job = gpt2_heavy_job(jitter_sigma=0.005).with_name(f"G{g}J{k}")
                placements.append(place(job, up))
        caps = {"up0": 50.0, "up1": 50.0}
        mltcp = run_network_fluid(placements, caps, max_iterations=40, seed=1)
        fair = run_network_fluid(
            placements, caps, policy=FairShare(), max_iterations=40, seed=1
        )
        assert mltcp.mean_iteration_by_round()[-5:].mean() == pytest.approx(1.8, rel=0.02)
        assert fair.mean_iteration_by_round()[-5:].mean() > 2.2

    def test_shared_spine_plus_private_uplinks(self):
        """Jobs crossing both a private uplink and a shared spine port: the
        sliding must resolve contention on every traversed link."""
        j1 = gpt3_job(jitter_sigma=0.005)
        j2 = gpt2_job(jitter_sigma=0.005).with_name("J2")
        j3 = gpt2_job(jitter_sigma=0.005).with_name("J3")
        placements = [
            place(j1, "up0", "spine"),
            place(j2, "up1", "spine"),
            place(j3, "up1", "spine"),
        ]
        caps = {"up0": 50.0, "up1": 50.0, "spine": 50.0}
        result = run_network_fluid(placements, caps, max_iterations=60, seed=2)
        assert result.iteration_times("J1")[-10:].mean() == pytest.approx(1.2, rel=0.05)
        assert result.iteration_times("J2")[-10:].mean() == pytest.approx(1.8, rel=0.05)
        assert result.iteration_times("J3")[-10:].mean() == pytest.approx(1.8, rel=0.05)

    def test_heterogeneous_capacities(self):
        """A slower uplink stretches only its own jobs."""
        fast = gpt2_heavy_job(jitter_sigma=0.005).with_name("Fast")
        slow = gpt2_heavy_job(jitter_sigma=0.005).with_name("Slow")
        result = run_network_fluid(
            [place(fast, "big"), place(slow, "small")],
            {"big": 50.0, "small": 20.0},
            max_iterations=20,
            seed=1,
        )
        fast_mean = result.iteration_times("Fast")[-5:].mean()
        slow_mean = result.iteration_times("Slow")[-5:].mean()
        assert fast_mean == pytest.approx(1.8, rel=0.03)
        # 36 Gbit over 20 Gbps = 1.8 s comm + 0.9 s compute = 2.7 s.
        assert slow_mean == pytest.approx(2.7, rel=0.03)
