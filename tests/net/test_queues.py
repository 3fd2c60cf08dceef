"""Tests for bounded packet queues."""

import pytest

from repro.net.packets import AckPacket, DataPacket, LostPacket, SyncPacket
from repro.net.queues import PacketQueue, SendQueue


def data(n: int = 0) -> DataPacket:
    return DataPacket(dst=1, src=2, via=1, payload=bytes([n]))


def ack() -> AckPacket:
    return AckPacket(dst=1, src=2, via=1, seq_id=0, number=0)


class TestPacketQueue:
    def test_fifo_order(self):
        q = PacketQueue(4)
        for i in range(3):
            assert q.push(i)
        assert [q.pop(), q.pop(), q.pop()] == [0, 1, 2]

    def test_pop_empty_returns_none(self):
        assert PacketQueue(2).pop() is None

    def test_overflow_drops_and_counts(self):
        q = PacketQueue(2)
        assert q.push(1) and q.push(2)
        assert not q.push(3)
        assert q.dropped == 1
        assert len(q) == 2

    def test_peek_does_not_remove(self):
        q = PacketQueue(2)
        q.push("x")
        assert q.peek() == "x"
        assert len(q) == 1

    def test_full_flag(self):
        q = PacketQueue(1)
        assert not q.full
        q.push(1)
        assert q.full

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PacketQueue(0)

    def test_bool_and_iter(self):
        q = PacketQueue(3)
        assert not q
        q.push(1)
        q.push(2)
        assert q
        assert list(q) == [1, 2]

    def test_enqueued_total_counts_successes_only(self):
        q = PacketQueue(1)
        q.push(1)
        q.push(2)
        assert q.enqueued_total == 1

    def test_conservation_counters(self):
        q = PacketQueue(2)
        q.push(1)
        q.push(2)
        q.pop()
        assert q.enqueued_total == q.dequeued_total + len(q)


class TestSendQueue:
    def test_control_jumps_ahead_of_data(self):
        q = SendQueue(8)
        q.push(data(1))
        q.push(data(2))
        q.push(ack())
        assert isinstance(q.pop(), AckPacket)
        assert q.pop().payload == bytes([1])

    def test_lost_and_sync_are_priority(self):
        q = SendQueue(8)
        q.push(data())
        q.push(LostPacket(dst=1, src=2, via=1, seq_id=0, number=0))
        q.push(SyncPacket(dst=1, src=2, via=1, seq_id=0, number=1, total_bytes=1))
        assert isinstance(q.pop(), LostPacket)
        assert isinstance(q.pop(), SyncPacket)
        assert isinstance(q.pop(), DataPacket)

    def test_capacity_shared_across_lanes(self):
        q = SendQueue(2)
        assert q.push(data())
        assert q.push(ack())
        assert not q.push(data())
        assert q.dropped == 1

    def test_peek_matches_pop(self):
        q = SendQueue(4)
        q.push(data())
        q.push(ack())
        assert q.peek() is q.pop()

    def test_conservation_counters_with_requeue_and_drain(self):
        q = SendQueue(4)
        q.push(data(1))
        q.push(ack())
        q.pop()
        assert q.enqueued_total == q.dequeued_total + len(q)
        q.drain()
        assert q.enqueued_total == q.dequeued_total + len(q)

    def test_drain_empties_queue(self):
        q = SendQueue(4)
        q.push(data())
        q.push(ack())
        drained = q.drain()
        assert len(drained) == 2
        assert len(q) == 0

    def test_pop_empty_returns_none(self):
        assert SendQueue(2).pop() is None
        assert SendQueue(2).peek() is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SendQueue(0)
