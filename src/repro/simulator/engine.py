"""Discrete-event simulation engine.

A minimal, fast event core: a binary heap of plain ``[time, sequence,
callback]`` list entries.  Everything in the packet-level simulator —
link serialization, propagation, TCP timers, application phases — is
built on :class:`Simulator.schedule`.

Performance notes (see docs/PERFORMANCE.md for measurements):

* Heap entries are plain lists, not dataclasses.  A ``[t, seq, cb]``
  literal costs ~50 ns to build; a ``@dataclass(order=True)`` instance
  costs ~5x that and drags rich comparison through ``__lt__`` on every
  sift.  Tuples would be marginally cheaper still, but entries must be
  mutable so cancellation and firing can overwrite the callback slot
  in place.
* The entry returned by :meth:`Simulator.schedule` *is* the cancellation
  token: pass it to :meth:`Simulator.cancel`.  Cancellation nulls the
  callback slot and bumps a counter, so :meth:`Simulator.pending_events`
  never scans the queue.  The dead entry (a tombstone) stays in the heap
  until it reaches the top — or until tombstones outnumber both
  ``_COMPACT_FLOOR`` and the live entries (``_COMPACT_SHARE`` of the
  heap), when ``cancel`` filters them all out in one pass and re-heapifies.
  A pFabric sender cancels and re-arms its timer on every ACK, and a link
  fault re-plan cancels every delivery not yet started, so without
  compaction their tombstones would fill the heap and every push and pop
  would sift through them.  A TCP sender's RTO is a deadline that ACKs
  move without a cancel (:class:`repro.tcp.base.TcpSender`); it cancels
  only when the deadline moves earlier than its armed entry.  Compaction
  cannot move dispatch order: every key ``(time, sequence)`` is unique, so
  the pop order does not depend on the heap's layout, and no comparison
  ever reaches the callback slot.  Amortised, each cancel still costs O(1)
  list work.
* Times are checked once per call, never per event: ``schedule`` and
  ``schedule_at`` reject a negative, NaN or infinite time (an event at
  infinity would move the clock there for good), and ``run`` rejects a
  horizon that is NaN, infinite or before the clock.
* ``run()`` is one loop for every caller: the horizon and the event
  budget are one plain comparison each per event, and a detached monitor
  costs one ``is not None`` test per event.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, List, Optional, Protocol

__all__ = [
    "Simulator",
    "SimMonitor",
    "EventEntry",
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
#: callback]``; treat it as opaque outside this module and pass it to
#: :meth:`Simulator.cancel` / :meth:`Simulator.is_cancelled`.
EventEntry = List[Any]

#: Compaction: ``cancel`` rebuilds the heap once its tombstones exceed this
#: floor *and* this share of the heap, i.e. once they outnumber the live
#: entries.  The floor keeps small heaps from compacting on every cancel.
_COMPACT_FLOOR = 32
_COMPACT_SHARE = 0.5

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
        entry = [time, next(self._counter), callback]
        heappush(self._queue, entry)
        return entry

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventEntry:
        """Run ``callback`` at absolute simulation time ``time``."""
        if not self.now <= time < _INF:
            raise ValueError(
                f"cannot schedule in the past, at NaN or at infinity: "
                f"time={time!r}, now={self.now!r}"
            )
        entry = [time, next(self._counter), callback]
        heappush(self._queue, entry)
        return entry

    def cancel(self, entry: EventEntry) -> None:
        """Cancel a scheduled event (amortised O(1), idempotent).

        Cancelling an event that already fired is a no-op, matching
        timer semantics: a late ``cancel`` after the callback ran must
        not corrupt the live-event bookkeeping.  Once tombstones outnumber
        the live entries (and ``_COMPACT_FLOOR``), the heap is compacted
        in place — ``run()`` holds an alias to the list.
        """
        cb = entry[2]
        if cb is None or cb is _FIRED:
            return
        entry[2] = None
        cancelled = self._cancelled + 1
        queue = self._queue
        if cancelled > _COMPACT_FLOOR and cancelled > _COMPACT_SHARE * len(queue):
            queue[:] = [e for e in queue if e[2] is not None]
            heapify(queue)
            cancelled = 0
        self._cancelled = cancelled

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
                cb()
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
