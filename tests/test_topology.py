"""Tests for topology builders and routing."""

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.packet import Packet
from repro.simulator.topology import Network, build_dumbbell


class _Recorder:
    """Minimal flow sink collecting delivered packets."""

    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


def data_packet(src, dst, flow="f"):
    return Packet.data(flow, src, dst, 0, 100)


class TestDumbbell:
    def test_structure(self):
        net = build_dumbbell(Simulator(), n_pairs=3, bottleneck_bps=1e9)
        assert set(net.switches) == {"sw_l", "sw_r"}
        assert set(net.hosts) == {"s0", "s1", "s2", "r0", "r1", "r2"}
        assert ("sw_l", "sw_r") in net.links

    def test_bottleneck_rate(self):
        net = build_dumbbell(Simulator(), n_pairs=1, bottleneck_bps=5e8)
        assert net.link("sw_l", "sw_r").rate_bps == 5e8

    def test_edge_rate_defaults_to_4x(self):
        net = build_dumbbell(Simulator(), n_pairs=1, bottleneck_bps=1e9)
        assert net.link("s0", "sw_l").rate_bps == 4e9

    def test_end_to_end_delivery(self):
        sim = Simulator()
        net = build_dumbbell(sim, n_pairs=2, bottleneck_bps=1e9)
        sink = _Recorder()
        net.hosts["r1"].register_flow("f", sink)
        net.hosts["s1"].send(data_packet("s1", "r1"))
        sim.run()
        assert len(sink.packets) == 1

    def test_reverse_path_delivery(self):
        sim = Simulator()
        net = build_dumbbell(sim, n_pairs=1, bottleneck_bps=1e9)
        sink = _Recorder()
        net.hosts["s0"].register_flow("f", sink)
        net.hosts["r0"].send(data_packet("r0", "s0"))
        sim.run()
        assert len(sink.packets) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="n_pairs"):
            build_dumbbell(Simulator(), n_pairs=0, bottleneck_bps=1e9)
        with pytest.raises(ValueError, match="bottleneck"):
            build_dumbbell(Simulator(), n_pairs=1, bottleneck_bps=0.0)


class TestNetworkPrimitives:
    def test_duplicate_node_rejected(self):
        net = Network(sim=Simulator())
        net.add_host("a")
        with pytest.raises(ValueError, match="already exists"):
            net.add_switch("a")

    def test_duplicate_link_rejected(self):
        net = Network(sim=Simulator())
        net.add_host("a")
        net.add_host("b")
        net.add_link("a", "b", 1e9, 0.0)
        with pytest.raises(ValueError, match="already exists"):
            net.add_link("a", "b", 1e9, 0.0)

    def test_unknown_node_lookup(self):
        with pytest.raises(KeyError, match="ghost"):
            Network(sim=Simulator()).node("ghost")

    def test_unknown_link_lookup(self):
        with pytest.raises(KeyError, match="a -> b"):
            Network(sim=Simulator()).link("a", "b")

    def test_route_through_host_rejected(self):
        net = Network(sim=Simulator())
        for name in ("a", "m", "b"):
            net.add_host(name)
        net.add_link("a", "m", 1e9, 0.0)
        net.add_link("m", "b", 1e9, 0.0)
        with pytest.raises(ValueError, match="not a switch"):
            net.install_route("a", "b", ["a", "m", "b"])

    def test_route_endpoint_mismatch_rejected(self):
        net = Network(sim=Simulator())
        net.add_host("a")
        net.add_host("b")
        with pytest.raises(ValueError, match="must run"):
            net.install_route("a", "b", ["b", "a"])
