"""Tests for the reliable transport state machines.

These run two :class:`ReliableTransport` instances over a direct in-test
"wire" with controllable loss, isolating the transport from the radio
stack (full-stack reliability is covered in the integration tests).
"""

import random

import pytest

from repro.net.config import MesherConfig
from repro.net.packets import (
    AckPacket,
    LostPacket,
    NeedAckPacket,
    SyncPacket,
    XLDataPacket,
)
from repro.net.reliable import ReliableTransport, split_payload

A, B = 0x000A, 0x000B


class Wire:
    """Delivers packets between two transports with optional loss."""

    def __init__(self, sim, *, loss_rate: float = 0.0, delay_s: float = 0.05, seed: int = 0):
        self.sim = sim
        self.loss_rate = loss_rate
        self.delay_s = delay_s
        self.rng = random.Random(seed)
        self.endpoints = {}
        self.dropped = 0

    def attach(self, address, transport):
        self.endpoints[address] = transport

    def enqueue(self, packet) -> bool:
        if self.rng.random() < self.loss_rate:
            self.dropped += 1
            return True  # lost on the air, but the queue accepted it
        self.sim.schedule(self.delay_s, lambda: self._deliver(packet))
        return True

    def _deliver(self, packet):
        transport = self.endpoints.get(packet.dst)
        if transport is None:
            return
        handler = {
            NeedAckPacket: transport.handle_need_ack,
            AckPacket: transport.handle_ack,
            LostPacket: transport.handle_lost,
            SyncPacket: transport.handle_sync,
            XLDataPacket: transport.handle_xl_data,
        }[type(packet)]
        handler(packet)


@pytest.fixture
def pair(sim):
    """Two connected transports and their delivery logs."""
    config = MesherConfig(
        fragment_size=50, fragment_spacing_s=0.2, ack_timeout_s=3.0, gap_timeout_s=2.0, max_retries=5
    )
    wire = Wire(sim)
    received = {A: [], B: []}
    transports = {}
    for address in (A, B):
        transports[address] = ReliableTransport(
            sim,
            address,
            config,
            enqueue=wire.enqueue,
            route_via=lambda dst: dst,
            deliver=lambda src, payload, _addr=address: received[_addr].append((src, payload)),
        )
        wire.attach(address, transports[address])
    return transports, received, wire, config


class TestSplitPayload:
    def test_exact_multiple(self):
        assert split_payload(b"abcdef", 3) == [b"abc", b"def"]

    def test_remainder_fragment(self):
        assert split_payload(b"abcdefg", 3) == [b"abc", b"def", b"g"]

    def test_empty_payload_single_empty_fragment(self):
        assert split_payload(b"", 10) == [b""]

    def test_reassembly_identity(self):
        payload = bytes(range(256)) * 3
        assert b"".join(split_payload(payload, 37)) == payload

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            split_payload(b"x", 0)


class TestSinglePackets:
    def test_small_payload_uses_need_ack(self, sim, pair):
        transports, received, wire, _ = pair
        outcome = []
        transports[A].send(B, b"small", lambda ok, why: outcome.append((ok, why)))
        sim.run(until=10.0)
        assert received[B] == [(A, b"small")]
        assert outcome == [(True, "acked")]
        assert transports[A].singles_completed == 1

    def test_duplicate_need_ack_suppressed(self, sim, pair):
        transports, received, wire, _ = pair
        packet = NeedAckPacket(dst=B, src=A, via=B, seq_id=5, number=0, payload=b"dup")
        transports[B].handle_need_ack(packet)
        transports[B].handle_need_ack(packet)
        sim.run(until=1.0)
        assert received[B] == [(A, b"dup")]
        assert transports[B].duplicates_suppressed == 1
        # Both copies are ACKed (the retransmitted copy means the first
        # ACK was lost).
        assert transports[B].acks_sent == 2

    def test_retransmission_after_total_loss_then_failure(self, sim, pair):
        transports, received, wire, config = pair
        wire.loss_rate = 1.0  # nothing gets through
        outcome = []
        transports[A].send(B, b"doomed", lambda ok, why: outcome.append((ok, why)))
        # Backed-off retries wait 3+6+12+24+48+96 s (±25% jitter) before
        # the budget runs out, so give the failure room to land.
        sim.run(until=400.0)
        assert outcome == [(False, "ack timeout")]
        assert transports[A].singles_failed == 1
        assert received[B] == []

    def test_lost_ack_triggers_retransmit_but_single_delivery(self, sim, pair):
        transports, received, wire, _ = pair
        # Drop the first two frames on the wire (the NEED_ACK's ACK).
        drops = iter([False, True])  # deliver NEED_ACK, drop its ACK

        original = wire.enqueue

        def lossy(packet):
            try:
                if next(drops):
                    return True
            except StopIteration:
                pass
            return original(packet)

        for t in transports.values():
            t._enqueue = lossy
        outcome = []
        transports[A].send(B, b"once", lambda ok, why: outcome.append(ok))
        sim.run(until=30.0)
        assert received[B] == [(A, b"once")]  # delivered exactly once
        assert outcome == [True]


class TestStreams:
    def test_large_payload_roundtrip_clean(self, sim, pair):
        transports, received, wire, config = pair
        payload = bytes(i % 251 for i in range(500))
        outcome = []
        transports[A].send(B, payload, lambda ok, why: outcome.append(ok))
        sim.run(until=60.0)
        assert received[B] == [(A, payload)]
        assert outcome == [True]
        assert transports[A].streams_completed == 1
        assert transports[A].fragments_sent == 10  # 500/50

    def test_stream_survives_moderate_loss(self, sim, pair):
        transports, received, wire, _ = pair
        wire.loss_rate = 0.3
        wire.rng = random.Random(8)  # seed chosen to actually drop frames
        dropped_before = wire.dropped
        payload = bytes(i % 251 for i in range(1000))
        outcome = []
        transports[A].send(B, payload, lambda ok, why: outcome.append((ok, why)))
        sim.run(until=600.0)
        assert wire.dropped > dropped_before, "the lossy wire dropped nothing"
        assert outcome and outcome[0][0], f"stream failed: {outcome}"
        assert received[B] == [(A, payload)]
        assert transports[A].retransmissions > 0

    def test_lost_report_resends_exact_fragment(self, sim, pair):
        transports, received, wire, _ = pair
        payload = bytes(200)
        transports[A].send(B, payload)
        sim.run(until=5.0)  # all fragments delivered
        # Forge a LOST for fragment 2 of the (now completed) stream: stale,
        # must be ignored without crashing.
        transports[A].handle_lost(LostPacket(dst=A, src=B, via=A, seq_id=0, number=2))
        sim.run(until=10.0)
        assert received[B] == [(A, payload)]

    def test_zero_length_reliable_payload(self, sim, pair):
        transports, received, wire, _ = pair
        outcome = []
        transports[A].send(B, b"", lambda ok, why: outcome.append(ok))
        sim.run(until=10.0)
        assert received[B] == [(A, b"")]
        assert outcome == [True]

    def test_fragment_without_sync_is_ignored(self, sim, pair):
        # An orphan fragment (lost SYNC) creates no state and provokes no
        # LOST — the sender's ack-timeout path re-sends the SYNC instead.
        transports, received, wire, _ = pair
        orphan = XLDataPacket(dst=B, src=A, via=B, seq_id=9, number=3, payload=b"x")
        transports[B].handle_xl_data(orphan)
        sim.run(until=1.0)
        assert transports[B].losts_sent == 0
        assert transports[B].active_inbound == 0

    def test_lost_sync_recovered_by_ack_timeout(self, sim, pair):
        transports, received, wire, config = pair
        # Drop exactly the first frame (the SYNC), deliver everything else.
        state = {"first": True}
        original = wire.enqueue

        def drop_first(packet):
            if state["first"]:
                state["first"] = False
                wire.dropped += 1
                return True
            return original(packet)

        transports[A]._enqueue = drop_first
        outcome = []
        transports[A].send(B, bytes(300), lambda ok, why: outcome.append(ok))
        sim.run(until=120.0)
        assert outcome == [True]
        assert received[B] == [(A, bytes(300))]

    def test_lost_final_ack_answered_with_reack_not_livelock(self, sim, pair):
        transports, received, wire, config = pair
        # Drop only ACK packets emitted by B, once.
        dropped = {"done": False}
        original = wire.enqueue

        def drop_one_ack(packet):
            if isinstance(packet, AckPacket) and not dropped["done"]:
                dropped["done"] = True
                wire.dropped += 1
                return True
            return original(packet)

        transports[B]._enqueue = drop_one_ack
        outcome = []
        transports[A].send(B, bytes(200), lambda ok, why: outcome.append(ok))
        sim.run(until=120.0)
        assert outcome == [True]
        assert received[B] == [(A, bytes(200))]  # delivered exactly once

    def test_out_of_range_fragment_ignored(self, sim, pair):
        transports, received, wire, _ = pair
        transports[B].handle_sync(SyncPacket(dst=B, src=A, via=B, seq_id=1, number=2, total_bytes=10))
        transports[B].handle_xl_data(
            XLDataPacket(dst=B, src=A, via=B, seq_id=1, number=99, payload=b"x")
        )
        sim.run(until=0.1)
        assert received[B] == []

    def test_inbound_stream_capacity(self, sim, pair):
        transports, received, wire, config = pair
        for i in range(config.max_inbound_streams + 3):
            transports[B].handle_sync(
                SyncPacket(dst=B, src=A, via=B, seq_id=i, number=5, total_bytes=100)
            )
        assert transports[B].active_inbound == config.max_inbound_streams

    def test_receiver_gives_up_on_dead_sender(self, sim, pair):
        transports, received, wire, config = pair
        transports[B].handle_sync(SyncPacket(dst=B, src=A, via=B, seq_id=2, number=4, total_bytes=100))
        wire.loss_rate = 1.0  # LOSTs go nowhere, no fragments arrive
        sim.run(until=200.0)
        assert transports[B].active_inbound == 0

    def test_undeliverable_fragment_fails_instead_of_livelocking(self, sim, pair):
        # One fragment never gets through.  The receiver chases it until it
        # gives up, reopens the stream once on the sender's re-sent SYNC,
        # and after giving up again stays silent: reopening forever would
        # reset the sender's budget with every LOST and keep both ends
        # busy forever.
        transports, received, wire, config = pair
        original = wire.enqueue

        def drop_fragment_2(packet):
            if isinstance(packet, XLDataPacket) and packet.number == 2:
                wire.dropped += 1
                return True
            return original(packet)

        transports[A]._enqueue = drop_fragment_2
        outcome = []
        transports[A].send(B, bytes(300), lambda ok, why: outcome.append(ok))
        sim.run(until=3600.0)
        assert outcome == [False]
        assert received[B] == []
        assert transports[B].active_inbound == 0
        assert sim.pending == 0

    def test_concurrent_streams_to_same_destination(self, sim, pair):
        transports, received, wire, _ = pair
        p1 = bytes([1]) * 120
        p2 = bytes([2]) * 120
        outcomes = []
        transports[A].send(B, p1, lambda ok, why: outcomes.append(ok))
        transports[A].send(B, p2, lambda ok, why: outcomes.append(ok))
        sim.run(until=120.0)
        assert sorted(received[B]) == sorted([(A, p1), (A, p2)])
        assert outcomes == [True, True]

    def test_seq_ids_skip_in_flight_streams(self, sim, pair):
        transports, _, wire, _ = pair
        wire.loss_rate = 1.0  # keep streams in flight
        first = transports[A].send(B, bytes(100))
        second = transports[A].send(B, bytes(100))
        assert first != second

    def test_stream_counters(self, sim, pair):
        transports, _, _, _ = pair
        transports[A].send(B, bytes(300))
        sim.run(until=30.0)
        assert transports[A].streams_started == 1
        assert transports[A].streams_completed == 1
        assert transports[B].acks_sent >= 1

    def test_no_route_eventually_fails(self, sim, pair):
        transports, received, wire, config = pair
        transports[A]._route_via = lambda dst: None
        outcome = []
        transports[A].send(B, bytes(300), lambda ok, why: outcome.append((ok, why)))
        sim.run(until=300.0)
        assert outcome and not outcome[0][0]
