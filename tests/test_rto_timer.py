"""The TCP sender's retransmission timer: a deadline that ACKs move.

A restart stores ``now + timeout`` and touches the event heap only when no
entry is armed or the deadline moved earlier than the armed one; an entry
that fires before the deadline re-arms itself there.  The eager timer it
replaced, which cancelled and re-armed its heap entry on every restart, is
kept here verbatim as the oracle.
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.packet import install_packet_faults
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.harness.packetlab import mltcp_config_for
from repro.simulator.app import TrainingApp
from repro.simulator.engine import Simulator
from repro.simulator.queues import DropTailQueue, EcnQueue
from repro.simulator.topology import build_dumbbell
from repro.tcp.base import TcpReceiver, TcpSender
from repro.tcp.dctcp import DctcpCC
from repro.tcp.mltcp import MLTCPReno
from repro.tcp.reno import RenoCC
from repro.workloads.job import JobSpec


def _eager_restart_rto_timer(self):
    """``TcpSender._restart_rto_timer`` before the deadline."""
    self._cancel_rto_timer()
    if self.flight_size() <= 0:
        return
    timeout = min(self.max_rto, self.rto * self._rto_backoff)
    self._rto_timer = self.sim.schedule(timeout, self._on_rto)


def _eager_on_rto(self):
    """``TcpSender._on_rto`` before the deadline."""
    self._rto_timer = None
    if self.flight_size() <= 0:
        return
    self.timeouts += 1
    self.cc.on_rto(self)
    self.in_recovery = False
    self.dup_acks = 0
    self._rto_backoff = min(64.0, self._rto_backoff * 2.0)
    # Go-back-N: rewind the send point and retransmit the first hole.
    self.snd_nxt = self.snd_una + 1
    self._retransmit(self.snd_una)
    self._try_send()


@contextlib.contextmanager
def eager_rto():
    """Cancel and re-arm the heap entry on every restart, as before."""
    with mock.patch.object(TcpSender, "_restart_rto_timer", _eager_restart_rto_timer), \
            mock.patch.object(TcpSender, "_on_rto", _eager_on_rto):
        yield


@contextlib.contextmanager
def rto_expiries():
    """Yield a list of ``(fired at, last restart + its timeout)`` pairs, one
    per RTO that ran its body, for the senders built inside the block."""
    restart, cancel, on_rto = (
        TcpSender._restart_rto_timer, TcpSender._cancel_rto_timer, TcpSender._on_rto
    )
    due = {}
    fired = []

    def restarting(self):
        restart(self)  # may cancel, clearing ``due``
        if self.flight_size() > 0:
            due[self] = self.sim.now + min(self.max_rto, self.rto * self._rto_backoff)

    def cancelling(self):
        due[self] = None
        cancel(self)

    def expiring(self):
        timeouts, now, expected = self.timeouts, self.sim.now, due.get(self)
        on_rto(self)
        if self.timeouts > timeouts:
            fired.append((now, expected))

    with mock.patch.object(TcpSender, "_restart_rto_timer", restarting), \
            mock.patch.object(TcpSender, "_cancel_rto_timer", cancelling), \
            mock.patch.object(TcpSender, "_on_rto", expiring):
        yield fired


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
        armed = sender._rto_timer
        assert sim.peek_time() == 8e-3
        sim.run(until=5e-3)
        sender._restart_rto_timer()  # what an ACK at 5 ms does
        assert sender._rto_timer is armed
        assert sim.pending_events() == 1
        sim.run(until=9e-3)  # the armed entry fired at 8 ms
        assert sender.timeouts == 0
        assert sender._rto_timer is not armed
        assert sim.peek_time() == 5e-3 + 8e-3
        sim.run(until=5e-3 + 8e-3)
        assert sender.timeouts == 1

    def test_earlier_deadline_replaces_the_armed_entry(self):
        sim, sender = _unacked_sender()
        armed = sender._rto_timer
        sim.run(until=1e-3)
        sender.rto = 2e-3  # as a smaller RTT sample would set it
        sender._restart_rto_timer()
        assert sim.is_cancelled(armed)
        assert sim.pending_events() == 1
        assert sim.peek_time() == 1e-3 + 2e-3
        sim.run(until=1e-3 + 2e-3)
        assert sender.timeouts == 1
