"""Tests for the two-tier fat-tree fabric and multi-bottleneck MLTCP convergence.

Every multi-rack packet topology is a :func:`build_fat_tree` over a
:class:`FabricSpec`; the spec's own validation and its destination-keyed
ECMP rule are checked in ``tests/test_placement.py``.
"""

import numpy as np
import pytest

from repro.core.config import MLTCPConfig
from repro.simulator.app import TrainingApp
from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet
from repro.simulator.topology import build_fat_tree
from repro.tcp.base import TcpReceiver, TcpSender
from repro.tcp.mltcp import MLTCPReno
from repro.workloads.job import JobSpec
from repro.workloads.placement import FabricSpec

OVERHEAD = 1500 / 1460


class _Recorder:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


class TestFabricStructure:
    def test_node_inventory(self):
        net = build_fat_tree(Simulator(), FabricSpec(n_racks=2, hosts_per_rack=2,
                                                     n_spines=1))
        assert set(net.switches) == {"spine0", "rack0", "rack1"}
        assert set(net.hosts) == {"h0_0", "h0_1", "h1_0", "h1_1"}

    def test_inter_leaf_delivery(self):
        sim = Simulator()
        net = build_fat_tree(sim, FabricSpec(n_racks=2, hosts_per_rack=1,
                                             n_spines=1))
        sink = _Recorder()
        net.hosts["h1_0"].register_flow("f", sink)
        net.hosts["h0_0"].send(
            Packet.data("f", "h0_0", "h1_0", 0, 100)
        )
        sim.run()
        assert len(sink.packets) == 1
        assert net.switches["spine0"].packets_forwarded == 1

    def test_intra_leaf_avoids_spine(self):
        sim = Simulator()
        net = build_fat_tree(sim, FabricSpec(n_racks=2, hosts_per_rack=2,
                                             n_spines=1))
        sink = _Recorder()
        net.hosts["h0_1"].register_flow("f", sink)
        net.hosts["h0_0"].send(
            Packet.data("f", "h0_0", "h0_1", 0, 100)
        )
        sim.run()
        assert len(sink.packets) == 1
        assert net.switches["spine0"].packets_forwarded == 0

    def test_validation(self):
        """The builder's own link and queue parameters are checked; the
        fabric's shape is checked by FabricSpec itself."""
        spec = FabricSpec(n_racks=2, hosts_per_rack=1, n_spines=1)
        with pytest.raises(ValueError, match="delay"):
            build_fat_tree(Simulator(), spec, link_delay=-1e-6)
        with pytest.raises(ValueError, match="capacity_packets"):
            build_fat_tree(Simulator(), spec, uplink_queue_capacity=0)
        with pytest.raises(ValueError, match="capacity_packets"):
            build_fat_tree(Simulator(), spec, edge_queue_capacity=0)


class TestMultiSpine:
    def test_node_and_uplink_inventory(self):
        net = build_fat_tree(Simulator(), FabricSpec(n_racks=3, hosts_per_rack=2,
                                                     n_spines=2))
        assert {"spine0", "spine1", "rack0", "rack1", "rack2"} <= set(net.switches)
        uplinks = [key for key in net.links
                   if key[0].startswith("rack") and key[1].startswith("spine")]
        assert len(uplinks) == 3 * 2   # every rack to every spine

    def test_ecmp_routes_are_seed_deterministic(self):
        def routes(ecmp_seed):
            spec = FabricSpec(n_racks=2, hosts_per_rack=4, n_spines=2,
                              ecmp_seed=ecmp_seed)
            return build_fat_tree(Simulator(), spec).routes

        assert routes(0) == routes(0)
        seeds_differ = any(routes(0) != routes(seed) for seed in range(1, 8))
        assert seeds_differ

    def test_ecmp_uses_every_spine(self):
        net = build_fat_tree(Simulator(), FabricSpec(n_racks=2, hosts_per_rack=8,
                                                     n_spines=2))
        spines_used = {
            path[2]
            for (src, _dst), path in net.routes.items()
            if len(path) == 5 and src.startswith("h0")
        }
        assert spines_used == {"spine0", "spine1"}

    def test_same_destination_same_spine(self):
        """Destination-keyed tables: all of rack0's flows to one host share
        a spine, whatever their source host."""
        net = build_fat_tree(Simulator(), FabricSpec(n_racks=2, hosts_per_rack=4,
                                                     n_spines=2))
        via = {net.routes[(f"h0_{i}", "h1_0")][2] for i in range(4)}
        assert len(via) == 1

    def test_multi_spine_delivery(self):
        sim = Simulator()
        net = build_fat_tree(sim, FabricSpec(n_racks=2, hosts_per_rack=2,
                                             n_spines=2))
        sink = _Recorder()
        net.hosts["h1_1"].register_flow("f", sink)
        net.hosts["h0_0"].send(
            Packet.data("f", "h0_0", "h1_1", 0, 100)
        )
        sim.run()
        assert len(sink.packets) == 1


class TestFatTree:
    spec = FabricSpec(n_racks=4, hosts_per_rack=2, n_spines=2,
                      oversubscription=2.0)

    def test_inventory_matches_spec(self):
        net = build_fat_tree(Simulator(), self.spec)
        assert set(net.hosts) == set(self.spec.host_names())
        assert set(net.switches) == {
            "rack0", "rack1", "rack2", "rack3", "spine0", "spine1"
        }

    def test_oversubscribed_uplink_rates(self):
        net = build_fat_tree(Simulator(), self.spec)
        # 2 hosts x 1 Gbps / 2:1 oversub / 2 spines = 0.5 Gbps per uplink.
        assert self.spec.uplink_gbps == pytest.approx(0.5)
        for rack in range(4):
            for spine in range(2):
                link = net.link(f"rack{rack}", f"spine{spine}")
                assert link.rate_bps == pytest.approx(0.5e9)
        edge = net.link("h0_0", "rack0")
        assert edge.rate_bps == pytest.approx(1e9)

    def test_routes_agree_with_spec_paths(self):
        """The packet network's programmed paths are exactly the spec's
        path_nodes — the substrate-agreement half of the ECMP contract."""
        net = build_fat_tree(Simulator(), self.spec)
        hosts = self.spec.host_names()
        for src in hosts:
            for dst in hosts:
                if src == dst:
                    continue
                assert net.routes[(src, dst)] == self.spec.path_nodes(src, dst)

    def test_capacity_model_matches_spec(self):
        net = build_fat_tree(Simulator(), self.spec)
        for name, gbps in self.spec.capacities_gbps().items():
            src, dst = name.split("->")
            assert net.link(src, dst).rate_bps == pytest.approx(gbps * 1e9)

    def test_link_utilization_reporting(self):
        sim = Simulator()
        net = build_fat_tree(sim, self.spec)
        assert all(v == 0.0 for v in net.link_utilization().values())
        sink = _Recorder()
        net.hosts["h1_0"].register_flow("f", sink)
        net.hosts["h0_0"].send(
            Packet.data("f", "h0_0", "h1_0", 0, 1500)
        )
        sim.run()
        used = {k for k, v in net.link_utilization().items() if v > 0}
        spine = self.spec.spine_name(self.spec.spine_for(0, "h1_0"))
        assert used == {
            "h0_0->rack0", f"rack0->{spine}", f"{spine}->rack1", "rack1->h1_0"
        }
        with pytest.raises(ValueError, match="elapsed"):
            net.link_utilization(elapsed=0.0)


class TestDualBottleneckConvergence:
    def test_independent_uplinks_interleave_independently(self):
        """Two pairs of jobs congest two different rack uplinks; MLTCP
        interleaves each pair with zero cross-bottleneck coordination —
        the distributed-scalability pitch made concrete."""
        sim = Simulator()
        # 1 Gbps uplinks (2 hosts x 4 Gbps / 8:1) under 4 Gbps host links.
        net = build_fat_tree(sim, FabricSpec(n_racks=4, hosts_per_rack=2,
                                             n_spines=1, host_gbps=4.0,
                                             oversubscription=8.0))
        rng = np.random.default_rng(6)
        template = JobSpec(
            name="Job", comm_bits=8e6, demand_gbps=1.0, compute_time=0.010,
            jitter_sigma=0.0005,
        )
        placements = [
            ("A1", "h0_0", "h1_0"),
            ("A2", "h0_1", "h1_1"),   # share the rack0 -> spine0 uplink
            ("B1", "h2_0", "h3_0"),
            ("B2", "h2_1", "h3_1"),   # share the rack2 -> spine0 uplink
        ]
        apps = {}
        for name, src, dst in placements:
            job = template.with_name(name)
            cc = MLTCPReno(
                MLTCPConfig(total_bytes=job.comm_bytes, comp_time=0.003)
            )
            sender = TcpSender(sim, net.hosts[src], name, dst, cc)
            TcpReceiver(sim, net.hosts[dst], name, src)
            app = TrainingApp(sim, sender, job, max_iterations=35, rng=rng)
            app.start()
            apps[name] = app
        sim.run(until=2.0)

        ideal = 8e6 / 1e9 * OVERHEAD + 0.010
        for name, app in apps.items():
            times = app.iteration_times()
            assert len(times) == 35, name
            assert times[:3].mean() > 1.2 * ideal, name     # congested start
            assert times[-5:].mean() == pytest.approx(ideal, rel=0.1), name
