"""Discrete-event simulation engine.

A minimal, fast event core: a binary heap of plain ``[time, sequence,
callback, argument]`` list entries.  Everything in the packet-level
simulator — link serialization, propagation, TCP timers, application
phases — is built on :meth:`Simulator.schedule` and its two siblings.

Performance notes (see docs/PERFORMANCE.md for measurements):

* Heap entries are plain lists, not dataclasses.  A ``[t, seq, cb, arg]``
  literal costs ~50 ns to build; a ``@dataclass(order=True)`` instance
  costs ~5x that and drags rich comparison through ``__lt__`` on every
  sift.  Tuples would be marginally cheaper still, but entries must be
  mutable so cancellation and firing can overwrite the callback slot
  in place.
* :meth:`Simulator.schedule_call` stores one argument in the entry, and
  ``run`` calls ``callback(argument)``.  A link delivers every packet
  this way: no closure is built to carry the packet, and firing costs
  one Python call instead of two.  ``schedule`` and ``schedule_at``
  store a private sentinel in the argument slot, which ``run`` tests by
  identity, so any argument — ``None`` included — reaches its callback.
* The entry returned by :meth:`Simulator.schedule` *is* the cancellation
  token: pass it to :meth:`Simulator.cancel`.  Cancellation nulls the
  callback slot and bumps a counter, so :meth:`Simulator.pending_events`
  never scans the queue.  The dead entry (a tombstone) stays in the heap
  until it reaches the top, so no caller may cancel per packet or per
  ACK.  None does: a retransmission timer is a :class:`DeadlineTimer`,
  whose restarts move a deadline and cancel only when it moves earlier
  than the armed entry or the timer stops (all in-flight data
  acknowledged).  The other cancels are bounded too: a delayed-ACK timer
  cancels once per coalesced ACK, DCQCN's periodic timers once per
  transfer, and a link fault re-plan once per buffered packet per
  transition.
* Times are checked once per call, never per event: ``schedule``,
  ``schedule_at`` and ``schedule_call`` reject a negative, NaN or
  infinite time (an event at infinity would move the clock there for
  good), and ``run`` rejects a horizon that is NaN, infinite or before
  the clock.
* ``run()`` is one loop for every caller: the horizon and the event
  budget are one plain comparison each per event, and a detached monitor
  costs one ``is not None`` test per event.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, List, Optional, Protocol

__all__ = [
    "Simulator",
    "SimMonitor",
    "EventEntry",
    "DeadlineTimer",
    "total_events_processed",
]


class SimMonitor(Protocol):
    """What the engine needs from a monitor (``repro.guards.GuardRail``).

    Duck-typed on purpose: the engine must stay importable without the
    guards package (no upward dependency), so it only requires this one
    method rather than the concrete class.
    """

    def violation(
        self, guard: str, subject: str, time: float, message: str
    ) -> object:
        """Report one invariant violation (see ``GuardRail.violation``)."""
        ...

#: Opaque token for a scheduled event.  Layout is ``[time, sequence,
#: callback, argument]``; treat it as opaque outside this module and pass
#: it to :meth:`Simulator.cancel` / :meth:`Simulator.is_cancelled`.
EventEntry = List[Any]

_INF = math.inf

#: Cumulative callbacks executed by every :class:`Simulator` in this process.
#: The harness telemetry layer (:mod:`repro.harness.telemetry`) snapshots it
#: around each experiment point to attribute simulation work per point, even
#: when the point builds several Simulator instances internally.
_TOTAL_EVENTS_PROCESSED = 0


def total_events_processed() -> int:
    """Process-wide count of simulator callbacks executed so far.

    Unlike :attr:`Simulator.events_processed` (one instance's counter), this
    aggregates across all instances created in the current process, which is
    what per-experiment-point instrumentation needs: one sweep point may run
    many simulations.  In a worker process forked by the experiment runner,
    the *delta* across a point is measured in that worker and shipped back.
    """
    return _TOTAL_EVENTS_PROCESSED


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self._name

    def __call__(self) -> None:  # pragma: no cover - never fired
        raise AssertionError(f"sentinel {self._name} must not be called")


#: Callback-slot sentinel: the event already fired (cancel is a no-op).
_FIRED = _Sentinel("<fired>")
#: Argument-slot sentinel: the callback takes no argument.
_NO_ARG = _Sentinel("<no argument>")


class Simulator:
    """Event queue with a monotonically advancing clock.

    :param monitor: optional :class:`SimMonitor` (a
        ``repro.guards.GuardRail``).  When set, the event loop checks two
        engine invariants per dispatched event — dispatch times never run
        backwards (``engine-monotonic``) and the clock keeps advancing
        (``engine-stall``: ``stall_event_limit`` consecutive events at one
        timestamp is a zero-delay livelock).  When ``None`` (the default)
        the checks are skipped at the cost of one ``is not None`` test per
        event.
    :param stall_event_limit: events allowed at a single timestamp before
        the monitor's ``engine-stall`` guard fires (once per run).
    """

    __slots__ = (
        "now",
        "_queue",
        "_counter",
        "_events_processed",
        "_cancelled",
        "_monitor",
        "_stall_event_limit",
    )

    def __init__(
        self,
        *,
        monitor: Optional[SimMonitor] = None,
        stall_event_limit: int = 1_000_000,
    ) -> None:
        if stall_event_limit < 1:
            raise ValueError(
                f"stall_event_limit must be positive, got {stall_event_limit!r}"
            )
        self.now: float = 0.0
        self._queue: list[EventEntry] = []
        self._counter = count()
        self._events_processed = 0
        #: Cancelled entries still resident in the queue.
        self._cancelled = 0
        self._monitor = monitor
        self._stall_event_limit = stall_event_limit

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for performance reports)."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventEntry:
        """Run ``callback`` ``delay`` seconds from now.

        Returns the opaque event entry; pass it to :meth:`cancel` to
        cancel the event (or ignore it — most call sites do).
        """
        time = self.now + delay
        # Negated so that NaN fails too; an infinite delay, or a finite one
        # that overflows the clock, fails the second test.
        if not (delay >= 0.0 and time < _INF):
            raise ValueError(
                f"delay must be finite and non-negative, got {delay!r}"
                if not 0.0 <= delay < _INF
                else f"delay={delay!r} from now={self.now!r} gives an "
                "infinite event time"
            )
        entry = [time, next(self._counter), callback, _NO_ARG]
        heappush(self._queue, entry)
        return entry

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventEntry:
        """Run ``callback`` at absolute simulation time ``time``."""
        if not self.now <= time < _INF:
            raise ValueError(
                f"cannot schedule in the past, at NaN or at infinity: "
                f"time={time!r}, now={self.now!r}"
            )
        entry = [time, next(self._counter), callback, _NO_ARG]
        heappush(self._queue, entry)
        return entry

    def schedule_call(
        self, time: float, callback: Callable[[Any], object], arg: Any
    ) -> EventEntry:
        """Run ``callback(arg)`` at absolute simulation time ``time``.

        Checks ``time`` as :meth:`schedule_at` does; ``arg`` may be any
        object, ``None`` included.
        """
        if not self.now <= time < _INF:
            raise ValueError(
                f"cannot schedule in the past, at NaN or at infinity: "
                f"time={time!r}, now={self.now!r}"
            )
        entry = [time, next(self._counter), callback, arg]
        heappush(self._queue, entry)
        return entry

    def cancel(self, entry: EventEntry) -> None:
        """Cancel a scheduled event (O(1), idempotent).

        Cancelling an event that already fired is a no-op, matching
        timer semantics: a late ``cancel`` after the callback ran must
        not corrupt the live-event bookkeeping.
        """
        cb = entry[2]
        if cb is None or cb is _FIRED:
            return
        entry[2] = None
        self._cancelled += 1

    def is_cancelled(self, entry: EventEntry) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return entry[2] is None

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Process events in time order.

        Stops when the queue empties, the next event lies past ``until``
        (it stays queued, so a later ``run()`` resumes, and the clock stops
        exactly at ``until``), or ``max_events`` callbacks have run (a
        runaway guard for tests; the clock stays at the last dispatch while
        live events at or before ``until`` remain).  ``until`` must be
        finite and not before the clock; ``None`` runs without a horizon.
        """
        global _TOTAL_EVENTS_PROCESSED
        if until is None:
            horizon = _INF
        elif self.now <= until < _INF:
            horizon = until
        else:
            raise ValueError(
                f"until must be finite and not before the clock: "
                f"until={until!r}, now={self.now!r}"
            )
        queue = self._queue
        pop = heappop
        # ``processed`` counts up from 0, so -1 is never reached: no budget.
        # A small int keeps the per-event comparison on CPython's fast
        # int-to-int path, which neither ``math.inf`` nor ``sys.maxsize`` is.
        budget = -1 if max_events is None else max(max_events, 0)
        monitor = self._monitor
        stall_limit = self._stall_event_limit
        # Stall tracking: consecutive dispatches that fail to advance the
        # clock past ``last_time``.  Ordered comparisons only — exact float
        # equality is precisely what a zero-delay livelock produces, and we
        # must not depend on it (repro-lint FLT001).
        last_time = self.now
        stall_count = 0
        processed = 0
        try:
            while queue and processed != budget:
                entry = queue[0]
                time = entry[0]
                if time > horizon:
                    # Leave the entry queued so a later run() resumes.
                    break
                pop(queue)
                cb = entry[2]
                if cb is None:
                    self._cancelled -= 1
                    continue
                if monitor is not None:
                    if time < self.now:
                        monitor.violation(
                            "engine-monotonic",
                            "engine",
                            self.now,
                            f"event scheduled at {time!r} dispatched after the "
                            f"clock reached {self.now!r}",
                        )
                    if time > last_time:
                        last_time = time
                        stall_count = 0
                    else:
                        stall_count += 1
                        if stall_count == stall_limit:
                            monitor.violation(
                                "engine-stall",
                                "engine",
                                time,
                                f"{stall_count} consecutive events without the "
                                f"clock advancing past {last_time!r}; "
                                "zero-delay livelock?",
                            )
                entry[2] = _FIRED
                self.now = time
                arg = entry[3]
                if arg is _NO_ARG:
                    cb()
                else:
                    cb(arg)
                processed += 1
            # Stop the clock exactly at the horizon, unless the budget ran
            # out with live events still due by then.
            if until is not None and self.now < until:
                next_time = self.peek_time()
                if next_time is None or next_time > until:
                    self.now = until
        finally:
            self._events_processed += processed
            _TOTAL_EVENTS_PROCESSED += processed

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is empty.

        Lazily prunes cancelled entries off the top, keeping the
        cancelled-count bookkeeping consistent so
        :meth:`pending_events` stays exact (regression: the pre-rewrite
        version popped without bookkeeping).
        """
        queue = self._queue
        while queue:
            top = queue[0]
            if top[2] is None:
                heappop(queue)
                self._cancelled -= 1
                continue
            return float(top[0])
        return None

    def pending_events(self) -> int:
        """Live (non-cancelled) events still queued — O(1)."""
        return len(self._queue) - self._cancelled


class DeadlineTimer:
    """A one-shot timer whose deadline restarts move, like Linux's
    ``icsk_timeout``.

    :meth:`restart` stores ``now + timeout`` in :attr:`deadline` and
    touches the event heap only when no entry is armed or the deadline
    moved earlier than the armed one (then it cancels that entry).  An
    entry that fires before the deadline re-arms itself there, as
    ``tcp_write_timer_handler`` does, so ``callback`` still runs exactly
    ``timeout`` after the last restart.  A timer restarted on every ACK
    thus pushes about one entry per timeout instead of one per ACK.
    """

    __slots__ = ("deadline", "armed", "_sim", "_callback", "_entry")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        #: When the timer expires; restarts move it.
        self.deadline = 0.0
        #: Whether a heap entry is pending; it never fires after
        #: :attr:`deadline`.
        self.armed = False
        self._entry: Optional[EventEntry] = None

    def restart(self, timeout: float) -> None:
        """Expire ``timeout`` seconds from now, whatever was set before."""
        sim = self._sim
        deadline = sim.now + timeout
        self.deadline = deadline
        entry = self._entry
        if entry is None or deadline < entry[0]:
            if entry is not None:
                sim.cancel(entry)
            self._entry = sim.schedule_at(deadline, self._fire)
            self.armed = True

    def cancel(self) -> None:
        """Stop the timer; a no-op when it is not armed."""
        if self._entry is not None:
            self._sim.cancel(self._entry)
            self._entry = None
            self.armed = False

    def _fire(self) -> None:
        deadline = self.deadline
        if self._sim.now < deadline:
            # Restarts moved the deadline since this entry was armed.
            self._entry = self._sim.schedule_at(deadline, self._fire)
            return
        self._entry = None
        self.armed = False
        self._callback()
