"""Retransmission timers: a deadline that ACKs move.

Both the TCP sender's RTO and the pFabric sender's timer are a
:class:`~repro.simulator.engine.DeadlineTimer`: a restart stores ``now +
timeout`` and touches the event heap only when no entry is armed or the
deadline moved earlier than the armed one; an entry that fires before the
deadline re-arms itself there.  Two oracles check it on generated
dumbbell runs: for TCP the timer with its eager restart (cancel and re-arm
the heap entry every time), and for pFabric the eager sender it replaced,
whose timer bodies are kept here verbatim.
"""

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
from repro.simulator.engine import DeadlineTimer, Simulator
from repro.simulator.queues import DropTailQueue, EcnQueue, PriorityQueue
from repro.simulator.topology import build_dumbbell
from repro.tcp.base import TcpReceiver, TcpSender
from repro.tcp.dctcp import DctcpCC
from repro.tcp.mltcp import MLTCPReno
from repro.tcp.pfabric import PFabricSender
from repro.tcp.reno import RenoCC
from repro.workloads.job import JobSpec


def _eager_restart(self, timeout):
    """``DeadlineTimer.restart`` as an eager timer: cancel the armed heap
    entry and push a new one on every restart, so none fires early."""
    self.cancel()
    self.deadline = self._sim.now + timeout
    self._entry = self._sim.schedule(timeout, self._fire)
    self.armed = True


@contextlib.contextmanager
def eager_rto():
    """Cancel and re-arm the heap entry on every restart."""
    with mock.patch.object(DeadlineTimer, "restart", _eager_restart):
        yield


@contextlib.contextmanager
def expiries(sender_cls, expire, timer):
    """Yield a list of ``(fired at, last restart + its timeout)`` pairs, one
    per expiry that ran the body of ``sender_cls.<expire>``, for the
    senders built inside the block; ``timer`` names their
    :class:`DeadlineTimer` attribute."""
    restart, cancel, on_expiry = (
        DeadlineTimer.restart, DeadlineTimer.cancel, getattr(sender_cls, expire)
    )
    due = {}
    fired = []

    def restarting(self, timeout):
        restart(self, timeout)
        due[self] = self._sim.now + timeout

    def cancelling(self):
        due[self] = None
        cancel(self)

    def expiring(self):
        timeouts, now, expected = self.timeouts, self.sim.now, due.get(getattr(self, timer))
        on_expiry(self)
        if self.timeouts > timeouts:
            fired.append((now, expected))

    with mock.patch.object(DeadlineTimer, "restart", restarting), \
            mock.patch.object(DeadlineTimer, "cancel", cancelling), \
            mock.patch.object(sender_cls, expire, expiring):
        yield fired


def rto_expiries():
    """:func:`expiries` of the TCP senders' RTOs."""
    return expiries(TcpSender, "_on_rto", "_rto_timer")


_CCS = {
    "reno": lambda job: RenoCC(),
    "dctcp": lambda job: DctcpCC(),
    "mltcp-reno": lambda job: MLTCPReno(mltcp_config_for(job)),
}


def _packet_run(scenario):
    """What one dumbbell run delivered and counted, and its event count."""
    ccs, (kind, capacity), loss, faults, seed = scenario
    sim = Simulator()
    network = build_dumbbell(
        sim, len(ccs), 1e9,
        bottleneck_queue=(
            EcnQueue(capacity, capacity // 2) if kind == "ecn"
            else DropTailQueue(capacity)
        ),
        bottleneck_random_loss=loss, loss_seed=seed,
    )
    rng = np.random.default_rng(seed)
    apps, senders = {}, {}
    for i, cc_name in enumerate(ccs):
        job = JobSpec(f"Job{i}", comm_bits=2e6, demand_gbps=1.0, compute_time=0.004)
        sender = TcpSender(sim, network.hosts[f"s{i}"], job.name, f"r{i}", _CCS[cc_name](job))
        sender.peer_rx = TcpReceiver(sim, network.hosts[f"r{i}"], job.name, f"s{i}")
        apps[job.name] = TrainingApp(sim, sender, job, max_iterations=6, rng=rng)
        apps[job.name].start()
        senders[job.name] = sender
    install_packet_faults(sim, network, FaultSchedule(events=faults, seed=seed), apps=apps)
    sim.run(until=0.1)
    observed = {
        "iterations": {
            name: [
                (it.index, it.comm_start.hex(), it.comm_end.hex(), it.iteration_end.hex())
                for it in app.iterations
            ]
            for name, app in apps.items()
        },
        "senders": {
            name: (s.timeouts, s.retransmissions, s.fast_retransmits, s.segments_sent)
            for name, s in senders.items()
        },
        "links": {
            link.name: (
                link.packets_sent, link.queue.drops, link.random_drops, link.fault_drops
            )
            for link in network.links.values()
        },
    }
    return observed, sim.events_processed


_windows = st.builds(
    lambda kind, time, duration, loss: FaultEvent(
        kind=kind, time=time, duration=duration,
        loss=loss if kind == "loss_burst" else 0.0,
    ),
    kind=st.sampled_from(["link_down", "loss_burst"]),
    time=st.floats(0.0, 0.04),
    duration=st.floats(0.0005, 0.01),
    loss=st.floats(0.05, 0.9),
)

#: A dumbbell run for ``_packet_run``: congestion controls, bottleneck
#: queue, random loss, an optional fault window and the seed.
_scenarios = st.tuples(
    st.lists(st.sampled_from(sorted(_CCS)), min_size=1, max_size=3),
    st.tuples(st.sampled_from(["droptail", "ecn"]), st.integers(8, 64)),
    st.one_of(st.just(0.0), st.floats(0.0, 0.03)),
    st.lists(_windows, max_size=1).map(tuple),
    st.integers(0, 2**16),
)

#: Two MLTCP-Reno flows and a Reno one over 3% loss on an 8-packet queue,
#: with the bottleneck down for 5 ms: 21 RTOs among the three senders.
PINNED = (
    ["mltcp-reno", "reno", "mltcp-reno"],
    ("droptail", 8),
    0.03,
    (FaultEvent(kind="link_down", time=0.01, duration=0.005),),
    7,
)


class TestLazyRtoMatchesEager:
    """Moving the RTO deadline instead of the heap entry moves no packet,
    no iteration and no counter; only the early fires add events."""

    def test_generated_runs(self):
        timeouts = []

        @settings(max_examples=40, deadline=None)
        @given(scenario=_scenarios)
        def check(scenario):
            with rto_expiries() as fired:
                lazy, lazy_events = _packet_run(scenario)
            with eager_rto():
                eager, eager_events = _packet_run(scenario)
            assert lazy == eager
            assert lazy_events >= eager_events
            assert all(now == due for now, due in fired)
            timeouts.append(len(fired))

        check()
        # The generated runs exercise the RTO, not only its re-arming.
        assert sum(timeouts) > 0

    def test_pinned_run_reaches_rtos(self):
        with rto_expiries() as fired:
            lazy, lazy_events = _packet_run(PINNED)
        with eager_rto():
            eager, eager_events = _packet_run(PINNED)
        assert lazy == eager
        assert sum(s[0] for s in lazy["senders"].values()) == len(fired) > 0
        assert lazy_events > eager_events
        assert all(now == due for now, due in fired)


def _unacked_sender():
    """A sender whose segments are all lost: only its timer acts.  Its
    first RTO is ``4 * min_rto``, 8 ms."""
    sim = Simulator()
    network = build_dumbbell(sim, 1, 1e9)
    network.links["s0", "sw_l"].up = False
    sender = TcpSender(sim, network.hosts["s0"], "f", "r0", RenoCC(), min_rto=2e-3)
    sender.send_bytes(10 * sender.mss_bytes)
    return sim, sender


class TestRtoDeadline:
    def test_early_fire_rearms_at_the_stored_deadline(self):
        sim, sender = _unacked_sender()
        armed = sender._rto_timer._entry
        assert sim.peek_time() == 8e-3
        sim.run(until=5e-3)
        sender._restart_rto_timer()  # what an ACK at 5 ms does
        assert sender._rto_timer._entry is armed
        assert sim.pending_events() == 1
        sim.run(until=9e-3)  # the armed entry fired at 8 ms
        assert sender.timeouts == 0
        assert sender._rto_timer._entry is not armed
        assert sim.peek_time() == 5e-3 + 8e-3
        sim.run(until=5e-3 + 8e-3)
        assert sender.timeouts == 1

    def test_earlier_deadline_replaces_the_armed_entry(self):
        sim, sender = _unacked_sender()
        armed = sender._rto_timer._entry
        sim.run(until=1e-3)
        sender.rto = 2e-3  # as a smaller RTT sample would set it
        sender._restart_rto_timer()
        assert sim.is_cancelled(armed)
        assert sim.pending_events() == 1
        assert sim.peek_time() == 1e-3 + 2e-3
        sim.run(until=1e-3 + 2e-3)
        assert sender.timeouts == 1


class _EagerPFabricSender(PFabricSender):
    """The pFabric sender before its timer became a deadline: it cancels
    and re-arms its heap entry on every ACK.  Each method below is that
    sender's body verbatim; ``__init__`` only swaps the deadline timer for
    the entry slot those bodies use."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._timer = None

    def receive(self, packet):
        """Handle an arriving cumulative ACK."""
        if not packet.is_ack:
            raise RuntimeError(f"pFabric sender {self.flow_id} got data: {packet!r}")
        if packet.seq > self.snd_una:
            newly = packet.seq - self.snd_una
            self.snd_una = packet.seq
            self.snd_nxt = max(self.snd_nxt, self.snd_una)
            self.acked_bytes_log.append((self.sim.now, newly * self.mss_bytes))
            self._restart_timer()
        if self.all_acked() and self.target > 0:
            self._cancel_timer()
            if self.on_all_acked is not None:
                self.on_all_acked()
            return
        self._pump()

    def _pump(self):
        while self.snd_nxt < self.target and self.snd_nxt < self.snd_una + self.window:
            self._transmit(self.snd_nxt)
            self.snd_nxt += 1
        if self.snd_nxt > self.snd_una and self._timer is None:
            self._restart_timer()

    def _restart_timer(self):
        self._cancel_timer()
        if self.snd_nxt > self.snd_una:
            self._timer = self.sim.schedule(self.rto, self._on_timeout)

    def _cancel_timer(self):
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None

    def _on_timeout(self):
        self._timer = None
        if self.all_acked():
            return
        self.timeouts += 1
        self.retransmissions += 1
        # Go-back-N from the first unacknowledged segment.
        self.snd_nxt = self.snd_una
        self._pump()


def _pfabric_run(scenario, sender_cls=PFabricSender):
    """What one pFabric dumbbell run acknowledged and counted, and its
    event count."""
    flows, capacity, loss, seed = scenario
    sim = Simulator()
    network = build_dumbbell(
        sim, len(flows), 1e9, bottleneck_queue=PriorityQueue(capacity),
        bottleneck_random_loss=loss, loss_seed=seed,
    )
    senders = []
    for i, (nbytes, later, window, rto) in enumerate(flows):
        sender = sender_cls(
            sim, network.hosts[f"s{i}"], f"f{i}", f"r{i}", window=window, rto=rto
        )
        TcpReceiver(sim, network.hosts[f"r{i}"], f"f{i}", f"s{i}")
        sender.send_bytes(nbytes)
        if later is not None:
            # A second transfer, queued while the first may be in flight.
            at, more = later
            sim.schedule(at, lambda sender=sender, more=more: sender.send_bytes(more))
        senders.append(sender)
    sim.run(until=0.2)
    observed = {
        "senders": [
            (
                [(t.hex(), acked) for t, acked in s.acked_bytes_log],
                s.timeouts, s.retransmissions, s.segments_sent,
            )
            for s in senders
        ],
        "links": {
            link.name: (
                link.packets_sent, link.queue.drops, link.random_drops, link.fault_drops
            )
            for link in network.links.values()
        },
    }
    return observed, sim.events_processed


#: A pFabric flow for ``_pfabric_run``: bytes, an optional later transfer
#: ``(start, bytes)``, the window and the timeout.
_pfabric_flows = st.tuples(
    st.integers(1, 400_000),
    st.one_of(st.none(), st.tuples(st.floats(0.0, 0.01), st.integers(1, 200_000))),
    st.integers(1, 48),
    st.floats(2e-4, 5e-3),
)

#: Flows, the bottleneck's ``PriorityQueue`` capacity, random loss, seed.
_pfabric_scenarios = st.tuples(
    st.lists(_pfabric_flows, min_size=1, max_size=3),
    st.integers(2, 64),
    st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
    st.integers(0, 2**16),
)


def _pfabric_expiries():
    """:func:`expiries` of the pFabric senders' timers."""
    return expiries(PFabricSender, "_on_timeout", "_timer")


class TestPFabricDeadlineMatchesEager:
    """ACKs moving the pFabric timer's deadline, instead of cancelling and
    re-arming its heap entry, move no ACK, timeout, segment or drop; only
    the early fires add events."""

    def test_generated_transfers(self):
        timeouts = []

        @settings(max_examples=100, deadline=None)
        @given(scenario=_pfabric_scenarios)
        def check(scenario):
            with _pfabric_expiries() as fired:
                lazy, lazy_events = _pfabric_run(scenario)
            eager, eager_events = _pfabric_run(scenario, _EagerPFabricSender)
            assert lazy == eager
            assert lazy_events >= eager_events
            assert all(now == due for now, due in fired)
            assert len(fired) == sum(s[1] for s in lazy["senders"])
            timeouts.append(len(fired))

        check()
        # The generated runs exercise the timeout, not only its re-arming.
        assert sum(timeouts) > 0

    @pytest.mark.parametrize("loss", [0.0, 0.01])
    def test_4mb_transfer(self, loss):
        scenario = ([(4_000_000, None, 16, 3e-3)], 32, loss, 0)
        with _pfabric_expiries() as fired:
            lazy, lazy_events = _pfabric_run(scenario)
        eager, eager_events = _pfabric_run(scenario, _EagerPFabricSender)
        assert lazy == eager
        (_log, timeouts, _retransmissions, segments), = lazy["senders"]
        assert segments >= 2740  # every 1,460-byte segment sent at least once
        assert len(fired) == timeouts
        assert (timeouts > 0) == (loss > 0)
        assert lazy_events >= eager_events
        assert all(now == due for now, due in fired)
