"""Tests for the fabric spec, deterministic ECMP, and placement policies."""

import pytest

from repro.workloads import cross_rack_scenario, identical_jobs
from repro.workloads.job import JobSpec
from repro.workloads.placement import (
    PLACEMENT_POLICIES,
    FabricSpec,
    JobPlacement,
    ecmp_index,
    host_rack,
    place_jobs,
)


class TestEcmpIndex:
    def test_deterministic(self):
        assert ecmp_index(3, "rack0", "h1_1", 4) == ecmp_index(3, "rack0", "h1_1", 4)

    def test_in_range(self):
        for n in (1, 2, 3, 7):
            for dst in ("h0_0", "h1_0", "h5_3"):
                assert 0 <= ecmp_index(0, "rack0", dst, n) < n

    def test_avalanche_spreads_similar_destinations(self):
        """Host names differing only in the trailing index must not all hash
        to one spine — the raw-CRC32 failure mode the finalizer exists for."""
        for seed in range(8):
            choices = {
                ecmp_index(seed, "rack0", f"h1_{i}", 2) for i in range(16)
            }
            assert choices == {0, 1}, f"seed {seed} used one spine for a whole rack"

    def test_seed_changes_assignment(self):
        assignments = {
            tuple(ecmp_index(seed, "rack0", f"h1_{i}", 2) for i in range(8))
            for seed in range(16)
        }
        assert len(assignments) > 1

    def test_rejects_no_choices(self):
        with pytest.raises(ValueError, match="n_choices"):
            ecmp_index(0, "rack0", "h1_0", 0)


class TestHostRack:
    def test_parses(self):
        assert host_rack("h0_0") == 0
        assert host_rack("h12_3") == 12

    def test_rejects_non_fabric_names(self):
        for bad in ("s0", "rack1", "spine0", "host"):
            with pytest.raises(ValueError, match="fabric host"):
                host_rack(bad)


class TestFabricSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_racks"):
            FabricSpec(n_racks=1)
        with pytest.raises(ValueError, match="hosts_per_rack"):
            FabricSpec(hosts_per_rack=0)
        with pytest.raises(ValueError, match="n_spines"):
            FabricSpec(n_spines=0)
        with pytest.raises(ValueError, match="oversubscription"):
            FabricSpec(oversubscription=0.0)
        with pytest.raises(ValueError, match="host_gbps"):
            FabricSpec(host_gbps=-1.0)

    @pytest.mark.parametrize("field", ["oversubscription", "host_gbps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_names_its_field(self, field, value):
        # NaN oversubscription marked every link non-interleavable with 0.0
        # overload, and cross_rack_interleaving then blamed a link's capacity.
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            FabricSpec(**{field: value})

    def test_oversubscription_capacity_math(self):
        spec = FabricSpec(
            n_racks=4, hosts_per_rack=4, n_spines=2, oversubscription=2.0
        )
        assert spec.n_hosts == 16
        assert spec.rack_capacity_gbps == pytest.approx(2.0)   # 4 Gbps / 2:1
        assert spec.uplink_gbps == pytest.approx(1.0)          # split over spines

    def test_nonblocking_fabric(self):
        spec = FabricSpec(n_racks=2, hosts_per_rack=2, n_spines=2)
        assert spec.rack_capacity_gbps == pytest.approx(2.0)
        assert spec.uplink_gbps == pytest.approx(1.0)

    def test_host_names_rack_major(self):
        spec = FabricSpec(n_racks=2, hosts_per_rack=2)
        assert spec.host_names() == ("h0_0", "h0_1", "h1_0", "h1_1")

    def test_intra_rack_path_skips_spine(self):
        spec = FabricSpec(n_racks=2, hosts_per_rack=2)
        assert spec.path_nodes("h0_0", "h0_1") == ("h0_0", "rack0", "h0_1")

    def test_inter_rack_path_crosses_one_spine(self):
        spec = FabricSpec(n_racks=3, hosts_per_rack=2, n_spines=2)
        nodes = spec.path_nodes("h0_0", "h2_1")
        assert nodes[0] == "h0_0" and nodes[-1] == "h2_1"
        assert nodes[1] == "rack0" and nodes[3] == "rack2"
        assert nodes[2] in ("spine0", "spine1")
        # ECMP is a pure function of (seed, ingress rack, dst).
        assert spec.path_nodes("h0_0", "h2_1") == nodes
        assert spec.path_nodes("h0_1", "h2_1")[2] == nodes[2]

    def test_path_links_match_nodes(self):
        spec = FabricSpec(n_racks=2, hosts_per_rack=1, n_spines=1)
        assert spec.path_links("h0_0", "h1_0") == (
            "h0_0->rack0", "rack0->spine0", "spine0->rack1", "rack1->h1_0"
        )

    def test_path_rejects_bad_endpoints(self):
        spec = FabricSpec(n_racks=2, hosts_per_rack=1)
        with pytest.raises(ValueError, match="differ"):
            spec.path_nodes("h0_0", "h0_0")
        with pytest.raises(ValueError, match="fabric"):
            spec.path_nodes("h0_0", "h9_0")

    def test_capacities_cover_every_path_link(self):
        spec = FabricSpec(n_racks=3, hosts_per_rack=2, n_spines=2,
                          oversubscription=1.5)
        capacities = spec.capacities_gbps()
        hosts = spec.host_names()
        for src in hosts:
            for dst in hosts:
                if src == dst:
                    continue
                for link in spec.path_links(src, dst):
                    assert link in capacities
        for link in spec.fabric_links():
            assert capacities[link] == pytest.approx(spec.uplink_gbps)

    def test_fabric_links_count(self):
        spec = FabricSpec(n_racks=3, n_spines=2)
        assert len(spec.fabric_links()) == 3 * 2 * 2   # racks x spines x directions


class TestJobPlacement:
    def test_rejects_self_loop(self):
        job = JobSpec(name="J", comm_bits=1e6, demand_gbps=1.0, compute_time=0.01)
        with pytest.raises(ValueError, match="differ"):
            JobPlacement(job=job, src="h0_0", dst="h0_0")

    def test_cross_rack_flag(self):
        job = JobSpec(name="J", comm_bits=1e6, demand_gbps=1.0, compute_time=0.01)
        assert JobPlacement(job=job, src="h0_0", dst="h1_0").cross_rack
        assert not JobPlacement(job=job, src="h0_0", dst="h0_1").cross_rack


class TestPlaceJobs:
    spec = FabricSpec(n_racks=4, hosts_per_rack=2, n_spines=2)

    def test_policy_catalog(self):
        assert PLACEMENT_POLICIES == ("packed", "spread", "random")

    def test_packed_stays_in_rack(self):
        jobs = cross_rack_scenario(4)
        placements = place_jobs(jobs, self.spec, policy="packed")
        assert [p.cross_rack for p in placements] == [False] * 4
        assert placements[0].src == "h0_0" and placements[0].dst == "h0_1"

    def test_spread_crosses_racks(self):
        jobs = cross_rack_scenario(4)
        placements = place_jobs(jobs, self.spec, policy="spread")
        assert all(p.cross_rack for p in placements)

    def test_hosts_never_shared(self):
        for policy in PLACEMENT_POLICIES:
            placements = place_jobs(cross_rack_scenario(4), self.spec, policy=policy)
            endpoints = [h for p in placements for h in (p.src, p.dst)]
            assert len(set(endpoints)) == len(endpoints)

    def test_random_is_seed_deterministic(self):
        jobs = cross_rack_scenario(3)
        first = place_jobs(jobs, self.spec, policy="random", seed=7)
        again = place_jobs(jobs, self.spec, policy="random", seed=7)
        other = place_jobs(jobs, self.spec, policy="random", seed=8)
        assert first == again
        assert first != other

    def test_rejects_overfull_fabric(self):
        with pytest.raises(ValueError, match="hosts"):
            place_jobs(cross_rack_scenario(5), self.spec)

    def test_rejects_duplicate_names(self):
        job = cross_rack_scenario(1)[0]
        with pytest.raises(ValueError, match="unique"):
            place_jobs([job, job], self.spec)

    def test_rejects_empty_and_unknown_policy(self):
        with pytest.raises(ValueError, match="at least one"):
            place_jobs([], self.spec)
        with pytest.raises(ValueError, match="policy"):
            place_jobs(cross_rack_scenario(2), self.spec, policy="zigzag")

    def test_works_with_generic_jobs(self):
        template = JobSpec(
            name="G", comm_bits=4e6, demand_gbps=0.5, compute_time=0.02
        )
        placements = place_jobs(identical_jobs(template, 2), self.spec)
        assert len(placements) == 2
