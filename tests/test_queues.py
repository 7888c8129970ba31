"""Tests for queue disciplines (drop-tail, ECN marking, priority)."""

import pytest

from repro.simulator.packet import Packet
from repro.simulator.queues import DropTailQueue, EcnQueue, PriorityQueue


def data_packet(seq=0, priority=0.0, ecn_capable=False):
    return Packet.data(
        "f", "s", "r", seq, 1460, ecn_capable=ecn_capable, priority=priority
    )


class TestDropTail:
    def test_fifo_order(self):
        queue = DropTailQueue(4)
        for i in range(3):
            assert queue.push(data_packet(seq=i))
        assert [queue.pop().seq for _ in range(3)] == [0, 1, 2]

    def test_drops_when_full(self):
        queue = DropTailQueue(2)
        assert queue.push(data_packet(0))
        assert queue.push(data_packet(1))
        assert not queue.push(data_packet(2))
        assert queue.drops == 1

    def test_pop_empty_returns_none(self):
        assert DropTailQueue(2).pop() is None

    def test_drop_rate(self):
        queue = DropTailQueue(1)
        queue.push(data_packet(0))
        queue.push(data_packet(1))
        assert queue.drop_rate == pytest.approx(0.5)

    def test_len_tracks_occupancy(self):
        queue = DropTailQueue(4)
        queue.push(data_packet(0))
        queue.push(data_packet(1))
        queue.pop()
        assert len(queue) == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            DropTailQueue(0)


class TestEcn:
    def test_marks_above_threshold(self):
        queue = EcnQueue(capacity_packets=10, mark_threshold=2)
        for i in range(2):
            queue.push(data_packet(i, ecn_capable=True))
        marked = data_packet(2, ecn_capable=True)
        queue.push(marked)
        assert marked.ecn_ce
        assert queue.marks == 1

    def test_no_mark_below_threshold(self):
        queue = EcnQueue(capacity_packets=10, mark_threshold=5)
        packet = data_packet(0, ecn_capable=True)
        queue.push(packet)
        assert not packet.ecn_ce

    def test_non_capable_packets_never_marked(self):
        queue = EcnQueue(capacity_packets=10, mark_threshold=1)
        queue.push(data_packet(0))
        packet = data_packet(1, ecn_capable=False)
        queue.push(packet)
        assert not packet.ecn_ce

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="mark_threshold"):
            EcnQueue(capacity_packets=4, mark_threshold=5)


class TestPriority:
    def test_lowest_priority_value_first(self):
        """pFabric semantics: priority = remaining bytes, lowest first."""
        queue = PriorityQueue(8)
        queue.push(data_packet(0, priority=300.0))
        queue.push(data_packet(1, priority=100.0))
        queue.push(data_packet(2, priority=200.0))
        assert queue.pop().seq == 1
        assert queue.pop().seq == 2
        assert queue.pop().seq == 0

    def test_fifo_within_priority(self):
        queue = PriorityQueue(8)
        queue.push(data_packet(0, priority=1.0))
        queue.push(data_packet(1, priority=1.0))
        assert queue.pop().seq == 0

    def test_full_queue_evicts_worst_for_better(self):
        queue = PriorityQueue(2)
        queue.push(data_packet(0, priority=500.0))
        queue.push(data_packet(1, priority=400.0))
        assert queue.push(data_packet(2, priority=100.0))
        assert queue.drops == 1
        seqs = {queue.pop().seq, queue.pop().seq}
        assert seqs == {1, 2}

    def test_full_queue_rejects_worse_arrival(self):
        queue = PriorityQueue(2)
        queue.push(data_packet(0, priority=100.0))
        queue.push(data_packet(1, priority=200.0))
        assert not queue.push(data_packet(2, priority=900.0))
        assert len(queue) == 2

    def test_pop_empty_returns_none(self):
        assert PriorityQueue(2).pop() is None
