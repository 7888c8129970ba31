"""Point-to-point links: serialization, propagation, queueing, loss.

A :class:`Link` is unidirectional.  Packets handed to :meth:`Link.send` are
buffered in the link's queue discipline while the transmitter is busy; each
transmission takes ``size_bits / rate_bps`` seconds, after which the packet
propagates for ``delay`` seconds and is delivered to the receiving node.

``random_loss`` drops packets Bernoulli-independently before queueing — used
by the §5 fairness experiment, which needs a controlled loss probability to
measure the throughput-vs-loss response of Reno and MLTCP-Reno.

Fault-injection hooks (driven by :mod:`repro.faults.packet`): a link can be
taken :meth:`down <set_down>` and brought back :meth:`up <set_up>` (a flap),
its rate scaled by :meth:`set_rate_factor` (partial degradation), an extra
Bernoulli :meth:`fault loss <set_fault_loss>` layered on top of
``random_loss`` (a loss burst), and an :meth:`ECN storm <set_ecn_storm>`
that CE-marks every ECN-capable packet it serializes.  All four revert
cleanly, so a schedule of faults replays deterministically.

Performance notes (docs/PERFORMANCE.md): for FIFO disciplines the link
*plans* each packet's serialization at enqueue time — start and finish
instants are computed by accumulating transmission times exactly as a
per-packet transmit-complete chain would (bit-identical floats) — and
schedules that packet's one delivery event up front.  The link schedules
no other event.  Planned packets stay in the queue buffer until their
start instant passes; "settling" pops them lazily, at the next send or
fault hook, and each of those settles before it reads the buffer.  So
queue-length observables — DCTCP's marking threshold, drop-tail capacity
— see exactly the occupancy of a link that pops at transmit time.
Between those calls ``len(link.queue)`` may still count packets whose
serialization has started, until the link next settles; ``bits_sent``,
``packets_sent``, ``storm_marks`` and :meth:`Link.conservation_delta` are
exact at any instant.  Fault hooks settle, cancel the not-yet-started
deliveries (amortised O(1) each via ``Simulator.cancel``), and re-plan
under the new link state, which gives rate changes and ECN storms
pop-time semantics.  Priority queues (pFabric) reorder on arrival, so
they keep the per-packet event chain.

Most sends find the link idle: after settling, the plan is empty and the
wire is free.  While the link is up its plan and its buffer hold the same
unsettled packets, so the buffer is empty too, and such a packet starts
at once — counted as pushed and settled in one step
(:meth:`DropTailQueue.admit_idle <repro.simulator.queues.DropTailQueue.admit_idle>`),
with the same ``start = now``, finish and delivery event a plan entry
would get, but no buffer push, plan entry or later settle.  So a send
onto an idle link leaves ``len(link.queue) == 0``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, List, Optional

import numpy as np

from .engine import Simulator
from .packet import Packet
from .queues import DropTailQueue, QueueDiscipline

__all__ = ["Link"]

# Planned-transmission record:
# [packet, start, finish, size_bits, delivery_entry, storm_counted, storm_flipped]
_PlanEntry = List[object]


class Link:
    """Unidirectional link with a rate, propagation delay and queue."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        delay: float,
        queue: Optional[QueueDiscipline] = None,
        deliver: Optional[Callable[[Packet], None]] = None,
        random_loss: float = 0.0,
        loss_rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not (math.isfinite(rate_bps) and rate_bps > 0):
            raise ValueError(
                f"{name}: rate_bps must be finite and positive, got {rate_bps!r}"
            )
        if not (math.isfinite(delay) and delay >= 0):
            raise ValueError(
                f"{name}: delay must be finite and non-negative, got {delay!r}"
            )
        if not 0.0 <= random_loss < 1.0:
            raise ValueError(f"{name}: random_loss must be in [0, 1), got {random_loss!r}")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.delay = delay
        self.queue = queue if queue is not None else DropTailQueue(capacity_packets=100)
        self._deliver = deliver
        self.random_loss = random_loss
        self._loss_rng = loss_rng if loss_rng is not None else np.random.default_rng(0)
        self._busy = False
        # Burst planning (FIFO disciplines only; see module docstring).
        self._fifo = isinstance(self.queue, DropTailQueue)
        self._plan: deque[_PlanEntry] = deque()
        #: Finish instant of the last planned transmission.
        self._wire_free_at = 0.0
        #: Finish instant of the last *settled* (started) transmission.
        self._settled_until = 0.0
        # Fault-injection state (see repro.faults.packet).
        self.up = True
        self.rate_factor = 1.0
        self.fault_loss = 0.0
        self.ecn_storm = False
        self._fault_rng: Optional[np.random.Generator] = None
        # Counters for utilization/telemetry (settled portions; the public
        # values are properties that add the in-plan, already-started part).
        self._bits_settled = 0
        self._packets_settled = 0
        self._storm_settled = 0
        self.random_drops = 0
        self.fault_drops = 0

    def connect(self, deliver: Callable[[Packet], None]) -> None:
        """Attach the receiving node's packet handler."""
        self._deliver = deliver

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link (may be queued or dropped)."""
        if self._deliver is None:
            raise RuntimeError(f"link {self.name} has no receiver connected")
        if not self.up:
            # A severed link carries nothing; arrivals are lost, not queued,
            # so the transports see loss and recover once the link is back.
            self.fault_drops += 1
            return
        if self.random_loss > 0.0 and self._loss_rng.random() < self.random_loss:
            self.random_drops += 1
            return
        if self.fault_loss > 0.0 and self._require_fault_rng().random() < self.fault_loss:
            self.fault_drops += 1
            return
        if self._fifo:
            plan = self._plan
            if plan:
                self._settle()
            # While the link is up its plan and its buffer hold the same
            # unsettled packets: an empty plan means an empty buffer.
            if not plan and self._wire_free_at <= self.sim.now:
                if self.queue.admit_idle(packet):  # type: ignore[attr-defined]
                    self._start_idle(packet)
                return
            if not self.queue.push(packet):
                return  # tail drop, counted by the queue
            self._plan_packet(packet)
            return
        if not self.queue.push(packet):
            return  # tail drop, counted by the queue
        if not self._busy:
            self._transmit_next()

    # -- fault-injection hooks --------------------------------------------

    def set_down(self) -> None:
        """Sever the link: arrivals are dropped, the queue drains no further.

        A transmission already serializing completes (the cut happens at a
        packet boundary); everything buffered waits for :meth:`set_up`.
        """
        if not self.up:
            return
        self.up = False
        if self._fifo:
            self._settle()
            self._unplan_unstarted()

    def set_up(self) -> None:
        """Restore a severed link and resume draining its queue."""
        if self.up:
            return
        self.up = True
        if self._fifo:
            self._replan_buffer()
        elif not self._busy:
            self._transmit_next()

    def set_rate_factor(self, factor: float) -> None:
        """Scale the serialization rate (1.0 = healthy, 0.5 = half rate).

        Applies to transmissions that have not started yet; a packet
        already serializing keeps its old rate (same as the pre-planning
        design, where the rate was read at transmission start).
        """
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(
                f"{self.name}: rate factor must be finite and positive, got {factor!r}"
            )
        # Identity check, not a numeric tolerance: re-planning on a no-op
        # factor write would only churn event sequence numbers.
        if factor == self.rate_factor:  # repro-lint: disable=FLT001
            return
        self.rate_factor = factor
        self._reschedule_unstarted()

    def set_fault_loss(self, probability: float, rng: Optional[np.random.Generator] = None) -> None:
        """Layer an extra Bernoulli drop probability on top of ``random_loss``."""
        if not 0.0 <= probability < 1.0:
            raise ValueError(
                f"{self.name}: fault loss must be in [0, 1), got {probability!r}"
            )
        self.fault_loss = probability
        if rng is not None:
            self._fault_rng = rng

    def set_ecn_storm(self, active: bool) -> None:
        """CE-mark every ECN-capable packet serialized while active."""
        active = bool(active)
        if active == self.ecn_storm:
            return
        self.ecn_storm = active
        self._reschedule_unstarted()

    def _require_fault_rng(self) -> np.random.Generator:
        if self._fault_rng is None:
            self._fault_rng = np.random.default_rng(0)
        return self._fault_rng

    # -- telemetry ---------------------------------------------------------

    @property
    def bits_sent(self) -> int:
        """Bits whose serialization has started (exact at any instant)."""
        total = self._bits_settled
        now = self.sim.now
        for entry in self._plan:
            if entry[1] <= now:  # type: ignore[operator]
                total += entry[3]  # type: ignore[operator]
            else:
                break
        return total

    @property
    def packets_sent(self) -> int:
        """Packets whose serialization has started."""
        total = self._packets_settled
        now = self.sim.now
        for entry in self._plan:
            if entry[1] <= now:  # type: ignore[operator]
                total += 1
            else:
                break
        return total

    @property
    def storm_marks(self) -> int:
        """ECN-storm CE marks applied to started transmissions."""
        total = self._storm_settled
        now = self.sim.now
        for entry in self._plan:
            if entry[1] <= now:  # type: ignore[operator]
                if entry[5]:
                    total += 1
            else:
                break
        return total

    def conservation_delta(self) -> int:
        """Accepted packets minus (dequeued + still buffered); zero when sane.

        Exact at any instant under lazy settling: a planned-but-started
        packet stays both buffered (in the queue) and unsettled (not yet in
        ``_packets_settled``), so it contributes to exactly one side of the
        identity.  Non-zero means a packet was lost or double-counted inside
        the link — the ``link-conservation`` guard
        (:func:`repro.guards.monitors.check_link_conservation`).
        """
        return self.queue.enqueued - (self._packets_settled + len(self.queue))

    def mean_rate_bps(self, elapsed: float) -> float:
        """Average throughput over ``elapsed`` seconds of simulation."""
        if elapsed <= 0:
            raise ValueError(f"elapsed must be positive, got {elapsed!r}")
        return self.bits_sent / elapsed

    # -- burst planning internals ------------------------------------------

    def _plan_packet(self, packet: Packet) -> None:
        """Schedule one packet's delivery; accumulate the wire timeline.

        ``start`` continues exactly where the previous transmission ends
        (the same float the old transmit-complete event carried), so every
        delivery instant matches the per-packet event chain bit for bit.
        """
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

    def _start_idle(self, packet: Packet) -> None:
        """Start ``packet`` now on an idle wire, settled in one step.

        What :meth:`_plan_packet` then :meth:`_settle` would record — the
        same ``start = now``, finish and delivery event — without the
        buffer push, the plan entry or the later pop.
        """
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

    def _settle(self) -> None:
        """Pop packets whose serialization has started off the queue.

        Planned packets remain buffered until their start instant so
        queue-length observables (ECN threshold, drop-tail capacity) match
        the old pop-at-transmit design exactly.
        """
        plan = self._plan
        if not plan:
            return
        now = self.sim.now
        pop = self.queue.pop
        while plan and plan[0][1] <= now:  # type: ignore[operator]
            entry = plan.popleft()
            pop()
            self._bits_settled += entry[3]  # type: ignore[operator]
            self._packets_settled += 1
            if entry[5]:
                self._storm_settled += 1
            self._settled_until = entry[2]  # type: ignore[assignment]

    def _unplan_unstarted(self) -> None:
        """Drop every not-yet-started plan entry (after :meth:`_settle`).

        The packets stay buffered; their delivery events are cancelled and
        storm marks applied at plan time are rolled back, so a re-plan sees
        them exactly as the old design's queue did.
        """
        plan = self._plan
        cancel = self.sim.cancel
        while plan:
            entry = plan.pop()
            cancel(entry[4])  # type: ignore[arg-type]
            if entry[6]:
                entry[0].ecn_ce = False  # type: ignore[union-attr]
        self._wire_free_at = self._settled_until

    def _replan_buffer(self) -> None:
        """Plan every buffered packet afresh (after a fault transition)."""
        if not self.up:
            return
        assert isinstance(self.queue, DropTailQueue)
        for packet in self.queue.buffered():
            self._plan_packet(packet)

    def _reschedule_unstarted(self) -> None:
        """Re-plan not-yet-started transmissions under new link state."""
        if not self._fifo:
            return
        self._settle()
        self._unplan_unstarted()
        self._replan_buffer()

    # -- legacy per-packet chain (non-FIFO disciplines) --------------------

    def _transmit_next(self) -> None:
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

    def _on_tx_complete(self, packet: Packet) -> None:
        assert self._deliver is not None
        self.sim.schedule(self.delay, lambda p=packet: self._deliver(p))
        self._transmit_next()
