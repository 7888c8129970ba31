"""Tests for links (serialization, propagation, loss) and nodes."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.packet import install_packet_faults
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.harness.packetlab import mltcp_config_for
from repro.simulator.app import TrainingApp
from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.node import Host, Switch
from repro.core.units import bits_from_bytes
from repro.simulator import packet as packet_module
from repro.simulator.packet import ACK_SIZE_BYTES, DATA_HEADER_BYTES, Packet
from repro.simulator.queues import DropTailQueue, EcnQueue, PriorityQueue
from repro.simulator.topology import build_dumbbell
from repro.tcp.base import TcpReceiver, TcpSender
from repro.tcp.dctcp import DctcpCC
from repro.tcp.mltcp import MLTCPReno
from repro.tcp.reno import RenoCC
from repro.workloads.job import JobSpec


def data_packet(seq=0, dst="r", flow="f"):
    return Packet.data(flow, "s", dst, seq, 1460)


class TestPacket:
    def test_data_wire_size_includes_headers(self):
        assert data_packet().size_bytes == 1460 + DATA_HEADER_BYTES

    def test_ack_wire_size(self):
        ack = Packet.ack("f", "r", "s", 5)
        assert ack.size_bytes == ACK_SIZE_BYTES

    def test_ack_with_payload_rejected(self):
        # An ACK's constructor takes no payload at all.
        with pytest.raises(TypeError, match="payload_bytes"):
            Packet.ack("f", "r", "s", 5, payload_bytes=10)
        assert Packet.ack("f", "r", "s", 5).payload_bytes == 0

    def test_data_without_payload_rejected(self):
        with pytest.raises(ValueError, match="payload"):
            Packet.data("f", "s", "r", 0, 0)

    def test_unique_uids(self):
        assert data_packet().uid != data_packet().uid


class _KeywordPacket:
    """The former keyword constructor, verbatim: the oracle of
    :class:`TestPositionalConstructors`."""

    __slots__ = Packet.__slots__

    def __init__(
        self,
        flow_id,
        src,
        dst,
        is_ack,
        #: Data: sequence number of this segment (segment index, not bytes).
        #: ACK: cumulative acknowledgement (next expected segment index).
        seq,
        #: Payload bytes (0 for ACKs).
        payload_bytes,
        #: Simulation time the *original* transmission of this segment left
        #: the sender; used for RTT sampling (Karn's rule clears it on
        #: retransmit).
        sent_time=None,
        #: True when this is a retransmission (Karn: no RTT sample).
        retransmitted=False,
        #: ECN: sender marks capability; queue sets congestion-experienced.
        ecn_capable=False,
        ecn_ce=False,
        #: ECN echo bit on ACKs (receiver reflects CE back to the sender).
        ecn_echo=False,
        #: Scheduling priority for priority queues (e.g. pFabric: remaining
        #: bytes; lower value = higher priority).
        priority=0.0,
    ):
        if payload_bytes < 0:
            raise ValueError(
                f"payload_bytes must be non-negative, got {payload_bytes!r}"
            )
        if is_ack and payload_bytes != 0:
            raise ValueError("pure ACKs carry no payload")
        if not is_ack and payload_bytes == 0:
            raise ValueError("data segments must carry payload")
        if seq < 0:
            raise ValueError(f"seq must be non-negative, got {seq!r}")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.is_ack = is_ack
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.sent_time = sent_time
        self.retransmitted = retransmitted
        self.ecn_capable = ecn_capable
        self.ecn_ce = ecn_ce
        self.ecn_echo = ecn_echo
        self.priority = priority
        self.uid = next(packet_module._packet_ids)
        #: Wire size including headers (bytes / bits).
        self.size_bytes = ACK_SIZE_BYTES if is_ack else payload_bytes + DATA_HEADER_BYTES
        self.size_bits = bits_from_bytes(self.size_bytes)


_PACKET_FIELDS = st.fixed_dictionaries({
    "flow_id": st.sampled_from(["f", "Job1"]),
    "src": st.sampled_from(["s0", "h0_1"]),
    "dst": st.sampled_from(["r0", "h1_0"]),
    # Half the draws near zero, where the checks refuse.
    "seq": st.one_of(st.integers(-2, 2), st.integers(0, 1 << 40)),
    "payload_bytes": st.one_of(st.integers(-2, 2), st.integers(0, 9000)),
    "sent_time": st.one_of(st.none(), st.floats(0.0, 10.0)),
    "retransmitted": st.booleans(),
    "ecn_capable": st.booleans(),
    "ecn_echo": st.booleans(),
    "priority": st.floats(0.0, 1e12),
})


def _built(build):
    """``build()``'s slots and uid, or its ``ValueError`` message."""
    try:
        packet = build()
    except ValueError as error:
        return str(error)
    slots = tuple(
        (name, type(getattr(packet, name)), getattr(packet, name))
        for name in Packet.__slots__
        if name != "uid"
    )
    return slots, packet.uid


def _next_uid():
    return Packet.ack("probe", "s", "r", 0).uid + 1


class TestPositionalConstructors:
    """``Packet.data`` and ``Packet.ack`` build what the keyword
    constructor built: the same slots, uids drawn from the one sequence,
    and the same ``ValueError`` messages."""

    @staticmethod
    def _check(old_build, new_build):
        first = _next_uid()
        old = _built(old_build)
        new = _built(new_build)
        if isinstance(old, str):
            assert new == old
            assert _next_uid() == first + 1  # a refused packet draws no uid
        else:
            assert new == (old[0], old[1] + 1) and old[1] == first
            assert _next_uid() == first + 3

    @settings(max_examples=200, deadline=None)
    @given(f=_PACKET_FIELDS)
    def test_data_matches_keyword_constructor(self, f):
        self._check(
            lambda: _KeywordPacket(
                flow_id=f["flow_id"], src=f["src"], dst=f["dst"], is_ack=False,
                seq=f["seq"], payload_bytes=f["payload_bytes"],
                sent_time=f["sent_time"], retransmitted=f["retransmitted"],
                ecn_capable=f["ecn_capable"], priority=f["priority"],
            ),
            lambda: Packet.data(
                f["flow_id"], f["src"], f["dst"], f["seq"], f["payload_bytes"],
                f["sent_time"], f["retransmitted"], f["ecn_capable"], f["priority"],
            ),
        )

    @settings(max_examples=200, deadline=None)
    @given(f=_PACKET_FIELDS)
    def test_ack_matches_keyword_constructor(self, f):
        self._check(
            lambda: _KeywordPacket(
                flow_id=f["flow_id"], src=f["src"], dst=f["dst"], is_ack=True,
                seq=f["seq"], payload_bytes=0, ecn_echo=f["ecn_echo"],
                sent_time=f["sent_time"], retransmitted=f["retransmitted"],
            ),
            lambda: Packet.ack(
                f["flow_id"], f["src"], f["dst"], f["seq"], f["sent_time"],
                f["retransmitted"], f["ecn_echo"],
            ),
        )


class TestLinkTiming:
    def test_serialization_plus_propagation(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", rate_bps=1e6, delay=0.01)
        link.connect(lambda p: arrivals.append(sim.now))
        packet = data_packet()
        link.send(packet)
        sim.run()
        expected = packet.size_bits / 1e6 + 0.01
        assert arrivals == [pytest.approx(expected)]

    def test_back_to_back_serialization(self):
        """Second packet waits for the first to serialize (not propagate)."""
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", rate_bps=1e6, delay=0.01)
        link.connect(lambda p: arrivals.append(sim.now))
        p1, p2 = data_packet(0), data_packet(1)
        link.send(p1)
        link.send(p2)
        sim.run()
        tx = p1.size_bits / 1e6
        assert arrivals[0] == pytest.approx(tx + 0.01)
        assert arrivals[1] == pytest.approx(2 * tx + 0.01)

    def test_queue_overflow_drops(self):
        sim = Simulator()
        received = []
        link = Link(sim, "l", rate_bps=1e3, delay=0.0, queue=DropTailQueue(2))
        link.connect(lambda p: received.append(p.seq))
        for i in range(10):
            link.send(data_packet(i))
        sim.run()
        # One in transmission + 2 buffered = 3 delivered.
        assert len(received) == 3
        assert link.queue.drops == 7

    def test_counters(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay=0.0)
        link.connect(lambda p: None)
        packet = data_packet()
        link.send(packet)
        sim.run()
        assert link.packets_sent == 1
        assert link.bits_sent == packet.size_bits
        assert link.mean_rate_bps(1.0) == packet.size_bits

    def test_random_loss_drops_fraction(self):
        sim = Simulator()
        received = []
        link = Link(
            sim,
            "l",
            rate_bps=1e9,
            delay=0.0,
            queue=DropTailQueue(10_000),
            random_loss=0.3,
            loss_rng=np.random.default_rng(0),
        )
        link.connect(lambda p: received.append(p))
        for i in range(2000):
            link.send(data_packet(i))
        sim.run()
        assert 0.25 < link.random_drops / 2000 < 0.35
        assert len(received) == 2000 - link.random_drops

    def test_unconnected_link_raises(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e9, delay=0.0)
        with pytest.raises(RuntimeError, match="no receiver"):
            link.send(data_packet())

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="rate"):
            Link(sim, "l", rate_bps=0.0, delay=0.0)
        with pytest.raises(ValueError, match="delay"):
            Link(sim, "l", rate_bps=1.0, delay=-1.0)
        with pytest.raises(ValueError, match="random_loss"):
            Link(sim, "l", rate_bps=1.0, delay=0.0, random_loss=1.0)
        link = Link(sim, "l", rate_bps=1.0, delay=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rate_bps"):
                Link(sim, "l", rate_bps=bad, delay=0.0)
            with pytest.raises(ValueError, match="delay"):
                Link(sim, "l", rate_bps=1.0, delay=bad)
            with pytest.raises(ValueError, match="rate factor"):
                link.set_rate_factor(bad)
        assert link.rate_factor == 1.0


class TestHost:
    def test_demux_by_flow_id(self):
        host = Host("h")
        seen = []

        class Sink:
            def __init__(self, tag):
                self.tag = tag

            def receive(self, packet):
                seen.append((self.tag, packet.seq))

        host.register_flow("a", Sink("a"))
        host.register_flow("b", Sink("b"))
        host.receive_packet(data_packet(1, flow="b"))
        host.receive_packet(data_packet(2, flow="a"))
        assert seen == [("b", 1), ("a", 2)]

    def test_unknown_flow_raises(self):
        with pytest.raises(RuntimeError, match="no flow"):
            Host("h").receive_packet(data_packet())

    def test_duplicate_flow_rejected(self):
        host = Host("h")

        class Sink:
            def receive(self, packet):
                pass

        host.register_flow("a", Sink())
        with pytest.raises(ValueError, match="already registered"):
            host.register_flow("a", Sink())

    def test_send_without_route_raises(self):
        with pytest.raises(RuntimeError, match="no route"):
            Host("h").send(data_packet())


class TestSwitch:
    def test_forwards_by_destination(self):
        sim = Simulator()
        switch = Switch("sw")
        delivered = []
        link = Link(sim, "sw->r", rate_bps=1e9, delay=0.0)
        link.connect(lambda p: delivered.append(p.seq))
        switch.attach_outgoing("r", link)
        switch.set_route("r", "r")
        switch.receive_packet(data_packet(7, dst="r"))
        sim.run()
        assert delivered == [7]
        assert switch.packets_forwarded == 1

    def test_missing_route_raises(self):
        with pytest.raises(RuntimeError, match="no route"):
            Switch("sw").receive_packet(data_packet())

    def test_route_to_unattached_neighbour_rejected(self):
        with pytest.raises(ValueError, match="no link"):
            Switch("sw").set_route("r", "ghost")


@contextlib.contextmanager
def burst_housekeeping():
    """Re-add the per-burst housekeeping event, the oracle of lazy settling.

    Each FIFO link once scheduled an event at the planned end of its wire
    timeline that settled started packets, so its buffer was exact at rest;
    whenever the plan was non-empty, one such event was pending.
    """
    send, replan = Link.send, Link._replan_buffer

    def arm(link):
        if link._fifo and link._plan and link._burst_entry is None:
            link._burst_entry = link.sim.schedule_at(
                link._wire_free_at, lambda: burst_end(link)
            )

    def burst_end(link):
        link._burst_entry = None
        link._settle()
        arm(link)

    def housekept_send(self, packet):
        send(self, packet)
        arm(self)

    def housekept_replan(self):
        replan(self)
        arm(self)

    with mock.patch.object(Link, "_burst_entry", None, create=True), \
            mock.patch.object(Link, "send", housekept_send), \
            mock.patch.object(Link, "_replan_buffer", housekept_replan):
        yield


_CCS = {
    "reno": lambda job: RenoCC(),
    "dctcp": lambda job: DctcpCC(),
    "mltcp-reno": lambda job: MLTCPReno(mltcp_config_for(job)),
}


def _recording(link, log):
    """``link``'s receiver, logging each delivered packet and its time."""
    deliver = link._deliver

    def record(packet):
        log.append((
            link.name, packet.flow_id, packet.seq, packet.is_ack, packet.ecn_ce,
            link.sim.now.hex(),
        ))
        deliver(packet)

    return record


def _observed_run(scenario):
    """Delivered packets and link counters of one dumbbell run at each stop,
    and the events the run processed."""
    ccs, queue, loss, faults, stops = scenario
    sim = Simulator()
    kind, capacity = queue
    network = build_dumbbell(
        sim, len(ccs), 1e9,
        bottleneck_queue={
            "droptail": DropTailQueue,
            "ecn": lambda capacity: EcnQueue(capacity, capacity // 2),
            "priority": PriorityQueue,
        }[kind](capacity),
        bottleneck_random_loss=loss, loss_seed=3,
    )
    delivered = []
    for link in network.links.values():
        link.connect(_recording(link, delivered))
    rng = np.random.default_rng(1)
    apps = {}
    for i, cc_name in enumerate(ccs):
        job = JobSpec(f"Job{i}", comm_bits=2e6, demand_gbps=1.0, compute_time=0.004)
        cc = _CCS[cc_name](job)
        sender = TcpSender(sim, network.hosts[f"s{i}"], job.name, f"r{i}", cc)
        sender.peer_rx = TcpReceiver(sim, network.hosts[f"r{i}"], job.name, f"s{i}")
        apps[job.name] = TrainingApp(sim, sender, job, max_iterations=6, rng=rng)
        apps[job.name].start()
    install_packet_faults(sim, network, FaultSchedule(events=faults, seed=4), apps=apps)
    observed = []
    for stop in stops:
        sim.run(until=stop)
        links = {
            link.name: (
                link.bits_sent, link.packets_sent, link.storm_marks,
                link.conservation_delta(), link.queue.drops,
                link.queue.enqueued, getattr(link.queue, "marks", None),
            )
            for link in network.links.values()
        }
        observed.append((sim.now.hex(), tuple(delivered), links))
    return observed, sim.events_processed


_fault_events = st.builds(
    lambda kind, time, duration, link, strength: FaultEvent(
        kind=kind, time=time, duration=duration, link=link,
        factor=strength if kind == "bandwidth" else 1.0,
        loss=strength if kind == "loss_burst" else 0.0,
    ),
    kind=st.sampled_from(["link_down", "bandwidth", "ecn_storm", "loss_burst"]),
    time=st.floats(0.0, 0.04),
    duration=st.floats(0.0005, 0.01),
    link=st.sampled_from([None, "sw_r->sw_l", "s0->sw_l"]),
    strength=st.floats(0.1, 0.9),
)


#: A dumbbell run for ``_observed_run``: congestion controls, bottleneck
#: queue, random loss, faults and the ``run(until=t)`` stops.
_scenarios = st.tuples(
    st.lists(st.sampled_from(sorted(_CCS)), min_size=1, max_size=3),
    st.tuples(st.sampled_from(["droptail", "ecn"]), st.integers(4, 64)),
    st.sampled_from([0.0, 0.001, 0.01]),
    st.lists(_fault_events, max_size=2).map(tuple),
    st.lists(st.floats(0.0, 0.06), min_size=1, max_size=4).map(sorted),
)
#: The same runs over a pFabric-style priority bottleneck, whose link keeps
#: the per-packet transmit chain.
_priority_scenarios = _scenarios.map(
    lambda scenario: (scenario[0], ("priority", scenario[1][1]), *scenario[2:])
)


class TestLazySettling:
    """Deleting the housekeeping event moves no packet and no counter."""

    @settings(max_examples=40, deadline=None)
    @given(scenario=_scenarios)
    def test_matches_housekeeping_event(self, scenario):
        lazy, lazy_events = _observed_run(scenario)
        with burst_housekeeping():
            housekept, housekept_events = _observed_run(scenario)
        assert lazy == housekept
        # The oracle ran its extra events: one per burst at least.
        assert housekept_events > lazy_events or not lazy[-1][1]


def _always_planned_send(self, packet):
    """``Link.send`` before the idle start, the oracle of :class:`TestIdleStart`:
    every accepted FIFO packet is pushed, planned and settled later."""
    if self._deliver is None:
        raise RuntimeError(f"link {self.name} has no receiver connected")
    if not self.up:
        self.fault_drops += 1
        return
    if self.random_loss > 0.0 and self._loss_rng.random() < self.random_loss:
        self.random_drops += 1
        return
    if self.fault_loss > 0.0 and self._require_fault_rng().random() < self.fault_loss:
        self.fault_drops += 1
        return
    if self._fifo:
        if self._plan:
            self._settle()
        if not self.queue.push(packet):
            return
        self._plan_packet(packet)
        return
    if not self.queue.push(packet):
        return
    if not self._busy:
        self._transmit_next()


class TestIdleStart:
    """Starting a send onto an idle FIFO link at once moves no packet, no
    counter and no event."""

    @settings(max_examples=40, deadline=None)
    @given(scenario=_scenarios)
    def test_matches_always_planned_send(self, scenario):
        started = _observed_run(scenario)
        with mock.patch.object(Link, "send", _always_planned_send):
            planned = _observed_run(scenario)
        assert started == planned

    @pytest.mark.parametrize("queue", [DropTailQueue(4), EcnQueue(4, 1)],
                             ids=["droptail", "ecn"])
    def test_idle_send_is_never_buffered(self, queue):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e6, delay=0.01, queue=queue)
        arrivals = []
        link.connect(lambda p: arrivals.append((p.seq, p.ecn_ce, sim.now)))
        first = data_packet(0)
        first.ecn_capable = True
        link.send(first)
        assert len(link.queue) == 0
        assert (link.queue.enqueued, link.packets_sent) == (1, 1)
        assert link.conservation_delta() == 0
        link.send(data_packet(1))  # the wire is busy: buffered
        assert len(link.queue) == 1
        sim.run()
        tx = first.size_bits / 1e6
        assert arrivals == [(0, False, tx + 0.01), (1, False, 2 * tx + 0.01)]
        assert getattr(link.queue, "marks", 0) == 0
        assert link.conservation_delta() == 0

    def test_storm_marks_an_idle_send(self):
        sim = Simulator()
        link = Link(sim, "l", rate_bps=1e6, delay=0.0, queue=EcnQueue(4, 2))
        marked = []
        link.connect(lambda p: marked.append(p.ecn_ce))
        link.set_ecn_storm(True)
        packet = data_packet()
        packet.ecn_capable = True
        link.send(packet)
        assert packet.ecn_ce and link.storm_marks == 1
        link.set_ecn_storm(False)  # a started packet keeps its mark
        sim.run()
        assert marked == [True]
        assert link.storm_marks == 1 and link.queue.marks == 0


# The link's delivery scheduling before ``Simulator.schedule_call``, verbatim:
# the oracle of :class:`TestDeliveryCalls`.  Each delivery carried its packet
# in a closure, and the receiver was read when the closure fired.

def _closure_plan_packet(self, packet):
    sim = self.sim
    start = self._wire_free_at
    now = sim.now
    if start < now:
        start = now
    size_bits = packet.size_bits
    finish = start + size_bits / (self.rate_bps * self.rate_factor)
    self._wire_free_at = finish
    storm_counted = False
    storm_flipped = False
    if self.ecn_storm and packet.ecn_capable:
        storm_counted = True
        if not packet.ecn_ce:
            packet.ecn_ce = True
            storm_flipped = True
    delivery = sim.schedule_at(
        finish + self.delay, lambda p=packet: self._deliver(p)  # type: ignore[misc]
    )
    self._plan.append(
        [packet, start, finish, size_bits, delivery, storm_counted, storm_flipped]
    )


def _closure_start_idle(self, packet):
    sim = self.sim
    size_bits = packet.size_bits
    finish = sim.now + size_bits / (self.rate_bps * self.rate_factor)
    self._wire_free_at = self._settled_until = finish
    self._bits_settled += size_bits
    self._packets_settled += 1
    if self.ecn_storm and packet.ecn_capable:
        packet.ecn_ce = True
        self._storm_settled += 1
    sim.schedule_at(
        finish + self.delay, lambda p=packet: self._deliver(p)  # type: ignore[misc]
    )


def _closure_transmit_next(self):
    if not self.up:
        self._busy = False
        return
    packet = self.queue.pop()
    if packet is None:
        self._busy = False
        return
    self._busy = True
    if self.ecn_storm and packet.ecn_capable:
        packet.ecn_ce = True
        self._storm_settled += 1
    tx_time = packet.size_bits / (self.rate_bps * self.rate_factor)
    self._bits_settled += packet.size_bits
    self._packets_settled += 1
    self.sim.schedule(tx_time, lambda p=packet: self._on_tx_complete(p))


def _closure_on_tx_complete(self, packet):
    assert self._deliver is not None
    self.sim.schedule(self.delay, lambda p=packet: self._deliver(p))
    self._transmit_next()


@contextlib.contextmanager
def delivery_closures():
    """Schedule every link delivery through a closure, as before
    ``Simulator.schedule_call``."""
    with mock.patch.object(Link, "_plan_packet", _closure_plan_packet), \
            mock.patch.object(Link, "_start_idle", _closure_start_idle), \
            mock.patch.object(Link, "_transmit_next", _closure_transmit_next), \
            mock.patch.object(Link, "_on_tx_complete", _closure_on_tx_complete):
        yield


class TestDeliveryCalls:
    """A delivery that carries its packet in the heap entry moves no packet,
    no counter and no event: FIFO links (planned and idle starts, with
    faults re-planning them) and a priority link's transmit chain."""

    @settings(max_examples=30, deadline=None)
    @given(scenario=_scenarios)
    def test_fifo_links_match_delivery_closures(self, scenario):
        direct = _observed_run(scenario)
        with delivery_closures():
            closures = _observed_run(scenario)
        assert direct == closures

    @settings(max_examples=30, deadline=None)
    @given(scenario=_priority_scenarios)
    def test_priority_link_matches_delivery_closures(self, scenario):
        direct = _observed_run(scenario)
        with delivery_closures():
            closures = _observed_run(scenario)
        assert direct == closures
