"""Tests for the discrete-event engine."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guards import GuardRail
from repro.simulator import engine
from repro.simulator.engine import Simulator

from .perf_fixtures import packet_fingerprint


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.3, lambda: order.append("c"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.schedule(0.2, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for name in "abc":
            sim.schedule(0.5, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_schedule_during_callback(self):
        sim = Simulator()
        hits = []

        def chain():
            hits.append(sim.now)
            if len(hits) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert hits == [1.0, 2.0, 3.0]

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay"):
            Simulator().schedule(-0.1, lambda: None)

    def test_rejects_past_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(0.5, lambda: None)

    def test_rejects_nan_times(self):
        # A NaN event would fire with the clock at NaN and pass it on to
        # everything it schedules.
        sim = Simulator()
        with pytest.raises(ValueError, match="delay"):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(ValueError, match="NaN"):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events() == 0

    def test_rejects_infinite_times(self):
        # An event at inf would fire with the clock at inf, and every later
        # relative schedule would land there too.
        sim = Simulator()
        for bad in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="delay"):
                sim.schedule(bad, lambda: None)
            with pytest.raises(ValueError, match="time="):
                sim.schedule_at(bad, lambda: None)
        sim.schedule_at(1e308, lambda: None)
        sim.run()
        # A finite delay that overflows the clock is refused the same way.
        with pytest.raises(ValueError, match="delay=.*infinite event time"):
            sim.schedule(1e308, lambda: None)
        assert sim.now == 1e308
        assert sim.pending_events() == 0
        assert sim.events_processed == 1


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        entry = sim.schedule(0.5, lambda: fired.append(1))
        sim.cancel(entry)
        sim.run()
        assert fired == []
        assert sim.is_cancelled(entry)

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        entry = sim.schedule(0.5, lambda: None)
        sim.cancel(entry)
        sim.cancel(entry)
        sim.run()
        assert sim.pending_events() == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        entry = sim.schedule(0.5, lambda: None)
        sim.run()
        sim.cancel(entry)  # late timer cancel: must not corrupt counts
        assert not sim.is_cancelled(entry)
        sim.schedule(1.0, lambda: None)
        assert sim.pending_events() == 1


class TestRunHorizon:
    def test_until_stops_clock_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(1))
        sim.run(until=1.0)
        assert fired == []
        assert sim.now == 1.0

    def test_run_resumes_after_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(1))
        sim.run(until=1.0)
        sim.run(until=3.0)
        assert fired == [1]

    def test_empty_queue_advances_to_until(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.001, forever)
        sim.run(max_events=100)
        assert sim.events_processed == 100

    @pytest.mark.parametrize("until", [math.inf, math.nan, -math.inf, 0.5])
    def test_rejects_horizon_that_breaks_the_clock(self, until):
        # inf left the clock at inf, NaN ran every event past the horizon,
        # and a horizon before the clock rewound it.
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="until="):
            sim.run(until=until)
        assert sim.now == 1.0
        assert fired == []
        assert sim.pending_events() == 1
        sim.run(until=1.0)  # the clock itself is a valid horizon
        sim.run()
        assert fired == [2.0]


#: Expected outcome of ``_scripted_run`` per bound: dispatch order as
#: (name, clock) pairs, the final clock, events processed, and the live
#: events left queued with the time of the first.
SCRIPTED_OUTCOMES = {
    "unbounded": (
        {},
        [("a", 0.1), ("b", 0.2), ("b0", 0.2), ("c", 0.3), ("d", 0.5)],
        0.5, 5, 0, None,
    ),
    "until": (
        {"until": 0.25},
        [("a", 0.1), ("b", 0.2), ("b0", 0.2)],
        0.25, 3, 2, 0.3,
    ),
    "max_events": (
        {"max_events": 3},
        [("a", 0.1), ("b", 0.2), ("b0", 0.2)],
        0.2, 3, 2, 0.3,
    ),
    "zero_budget": ({"max_events": 0}, [], 0.0, 0, 4, 0.1),
    # The budget runs out with events still due before the horizon: the
    # clock must not jump past them, or the next run() dispatches them
    # into the past.
    "budget_before_until": (
        {"until": 0.4, "max_events": 2},
        [("a", 0.1), ("b", 0.2)],
        0.2, 2, 3, 0.2,
    ),
    "budget_empties_queue": (
        {"until": 0.6, "max_events": 5},
        [("a", 0.1), ("b", 0.2), ("b0", 0.2), ("c", 0.3), ("d", 0.5)],
        0.6, 5, 0, None,
    ),
}


class TestOneDispatchLoop:
    """One scripted schedule — a cancellation, a tie and a zero-delay
    chain — gives the same dispatch, clock and remainder whether or not a
    monitor is attached, under every way ``run()`` can stop."""

    @staticmethod
    def _scripted_run(sim):
        order = []

        def fire(name):
            order.append((name, sim.now))

        def fire_and_chain():
            fire("b")
            sim.schedule(0.0, lambda: fire("b0"))

        sim.schedule(0.1, lambda: fire("a"))
        doomed = sim.schedule(0.2, lambda: fire("cancelled"))
        sim.schedule(0.2, fire_and_chain)
        sim.schedule(0.3, lambda: fire("c"))
        sim.schedule(0.5, lambda: fire("d"))
        sim.cancel(doomed)
        return order

    @pytest.mark.parametrize("bound", sorted(SCRIPTED_OUTCOMES))
    @pytest.mark.parametrize("monitored", [False, True], ids=["bare", "monitored"])
    def test_schedule_agrees_across_monitor(self, monitored, bound):
        kwargs, order, now, processed, pending, next_time = SCRIPTED_OUTCOMES[bound]
        rail = GuardRail("record")
        sim = Simulator(monitor=rail if monitored else None)
        fired = self._scripted_run(sim)
        sim.run(**kwargs)
        assert fired == order
        assert sim.now == now
        assert sim.events_processed == processed
        assert sim.pending_events() == pending
        assert sim.peek_time() == next_time
        assert len(rail) == 0


class TestIntrospection:
    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule(0.7, lambda: None)
        assert sim.peek_time() == pytest.approx(0.7)

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        entry = sim.schedule(0.1, lambda: None)
        sim.schedule(0.9, lambda: None)
        sim.cancel(entry)
        assert sim.peek_time() == pytest.approx(0.9)

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        entry = sim.schedule(0.2, lambda: None)
        sim.cancel(entry)
        assert sim.pending_events() == 1

    def test_peek_and_cancel_interleaving_keeps_counts_exact(self):
        # Regression: peek_time prunes cancelled entries off the heap; the
        # pre-rewrite engine dropped them without any bookkeeping, which
        # would desync an O(1) pending_events counter.  Interleave the two
        # aggressively and require exact counts and firings throughout.
        sim = Simulator()
        fired = []
        entries = [
            sim.schedule(0.1 * (i + 1), lambda i=i: fired.append(i))
            for i in range(6)
        ]
        sim.cancel(entries[0])
        sim.cancel(entries[1])
        assert sim.peek_time() == pytest.approx(0.3)  # prunes two cancelled tops
        assert sim.pending_events() == 4
        sim.cancel(entries[2])
        assert sim.pending_events() == 3
        assert sim.peek_time() == pytest.approx(0.4)
        sim.cancel(entries[5])
        assert sim.pending_events() == 2
        sim.run()
        assert fired == [3, 4]
        assert sim.pending_events() == 0
        assert sim.peek_time() is None


class TestProcessWideCounter:
    def test_total_events_accumulates_across_runs(self):
        from repro.simulator.engine import total_events_processed

        before = total_events_processed()
        sim = Simulator()
        for t in range(4):
            sim.schedule(0.1 * (t + 1), lambda: None)
        sim.run()
        assert total_events_processed() == before + 4

        other = Simulator()
        other.schedule(0.1, lambda: None)
        other.run()
        assert total_events_processed() == before + 5

    def test_counter_includes_early_stopped_runs(self):
        from repro.simulator.engine import total_events_processed

        before = total_events_processed()
        sim = Simulator()

        def forever():
            sim.schedule(0.001, forever)

        sim.schedule(0.001, forever)
        sim.run(max_events=10)
        assert total_events_processed() == before + 10


def _never_compacting_cancel(sim, entry):
    """The engine's cancel before compaction: tombstones stay until popped."""
    cb = entry[2]
    if cb is None or cb is engine._FIRED:
        return
    entry[2] = None
    sim._cancelled += 1


#: A callback's scripted side effects: schedule a child after a delay
#: (or not), then cancel the token at an index (or not).
_EFFECT = st.tuples(
    st.one_of(st.none(), st.sampled_from([0.0, 0.1, 0.25, 0.5])),
    st.one_of(st.none(), st.integers(0, 200)),
)
#: Delays and offsets from a small set, so event times tie exactly.
_WHEN = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])
_STEP = st.one_of(
    st.tuples(st.just("schedule"), _WHEN, _EFFECT),
    st.tuples(st.just("schedule_at"), _WHEN, _EFFECT),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    # An RTO timer: cancel the slot's token and re-arm it, once per delay.
    st.tuples(st.just("rearm"), st.lists(_WHEN, min_size=1, max_size=60)),
    # A burst of events, all but every ``stride``-th cancelled at once.
    st.tuples(st.just("burst"), st.lists(_WHEN, min_size=1, max_size=60),
              st.integers(1, 4)),
    st.tuples(st.just("run_until"), _WHEN),
    st.tuples(st.just("run_max"), st.integers(0, 20)),
)


def _scripted(program):
    """Run ``program`` on a fresh engine; the fired log and the engine's
    observables after each step."""
    sim = Simulator()
    tokens = []
    fired = []
    observed = []

    def callback(tag, effect):
        def fire():
            fired.append((tag, sim.now.hex()))
            child_delay, cancel_index = effect
            if child_delay is not None:
                tokens.append(sim.schedule(child_delay, callback(f"{tag}'", (None, None))))
            if cancel_index is not None and tokens:
                sim.cancel(tokens[cancel_index % len(tokens)])
        return fire

    rto = None
    for i, step in enumerate(program):
        op = step[0]
        if op == "schedule":
            tokens.append(sim.schedule(step[1], callback(i, step[2])))
        elif op == "schedule_at":
            tokens.append(sim.schedule_at(sim.now + step[1], callback(i, step[2])))
        elif op == "cancel" and tokens:
            sim.cancel(tokens[step[1] % len(tokens)])
        elif op == "rearm":
            for n, delay in enumerate(step[1]):
                if rto is not None:
                    sim.cancel(rto)
                rto = sim.schedule(delay, callback(f"rto{i}.{n}", (None, None)))
                tokens.append(rto)
        elif op == "burst":
            burst = [
                sim.schedule(delay, callback(f"burst{i}.{n}", (None, None)))
                for n, delay in enumerate(step[1])
            ]
            tokens.extend(burst)
            for n, token in enumerate(burst):
                if n % step[2]:
                    sim.cancel(token)
        elif op == "run_until":
            sim.run(until=sim.now + step[1])
        elif op == "run_max":
            sim.run(max_events=step[1])
        observed.append(_observables(sim))
    sim.run()
    observed.append(_observables(sim))
    return fired, observed


def _observables(sim):
    return sim.pending_events(), sim.peek_time(), sim.events_processed, sim.now.hex()


class TestHeapCompaction:
    """Compacting cancelled entries out of the heap moves no event."""

    @settings(max_examples=200, deadline=None)
    @given(
        program=st.lists(_STEP, max_size=40),
        floor=st.sampled_from([0, 2, engine._COMPACT_FLOOR]),
    )
    def test_matches_never_compacting_cancel(self, program, floor):
        with mock.patch.object(engine, "_COMPACT_FLOOR", floor):
            compacted = _scripted(program)
        with mock.patch.object(Simulator, "cancel", _never_compacting_cancel):
            oracle = _scripted(program)
        assert compacted == oracle

    def test_compaction_keeps_the_heap_mostly_live(self):
        sim = Simulator()
        fired = []
        entries = [
            sim.schedule(0.001 * (i % 7), lambda i=i: fired.append(i))
            for i in range(200)
        ]
        for entry in entries[::4] + entries[1::4] + entries[2::4]:
            sim.cancel(entry)
        assert sim.pending_events() == 50
        assert len(sim._queue) <= 2 * 50
        assert sim.peek_time() == 0.0
        sim.run()
        assert fired == sorted(range(3, 200, 4), key=lambda i: (i % 7, i))

    def test_packet_run_keeps_tombstones_bounded(self):
        # The TCP sender cancels and re-arms its RTO timer on every ACK;
        # without compaction tombstones outnumbered live entries 2-9x.
        checked = []

        def checking_cancel(sim, entry):
            cancel(sim, entry)
            live = len(sim._queue) - sim._cancelled
            checked.append(sim._cancelled <= max(engine._COMPACT_FLOOR, live))

        cancel = Simulator.cancel
        with mock.patch.object(Simulator, "cancel", checking_cancel):
            packet_fingerprint()
        assert len(checked) > 1000
        assert all(checked)
