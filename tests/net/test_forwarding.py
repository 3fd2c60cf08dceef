"""Tests for the data-plane classification logic."""

import dataclasses

import pytest

from repro.net.addresses import BROADCAST_ADDRESS
from repro.net.forwarding import ForwardAction, classify, initial_via, rewrite_via
from repro.net.packets import (
    AckPacket,
    DataPacket,
    LostPacket,
    NeedAckPacket,
    PacketType,
    RoutingEntry,
    SyncPacket,
    XLDataPacket,
)
from repro.net.routing_table import RoutingTable

ME = 0x0001
NEXT = 0x0002
FAR = 0x0003
OTHER = 0x0009


@pytest.fixture
def table():
    t = RoutingTable(ME)
    t.process_hello(NEXT, [RoutingEntry(address=FAR, metric=1)], now=0.0)
    return t


def pkt(dst, via, src=OTHER):
    return DataPacket(dst=dst, src=src, via=via, payload=b"p")


class TestClassification:
    def test_deliver_when_destination(self, table):
        decision = classify(pkt(dst=ME, via=ME), ME, table)
        assert decision.action is ForwardAction.DELIVER

    def test_deliver_broadcast(self, table):
        decision = classify(pkt(dst=BROADCAST_ADDRESS, via=BROADCAST_ADDRESS), ME, table)
        assert decision.action is ForwardAction.DELIVER

    def test_forward_when_named_via(self, table):
        decision = classify(pkt(dst=FAR, via=ME), ME, table)
        assert decision.action is ForwardAction.FORWARD
        assert decision.next_hop == NEXT
        assert decision.outgoing.via == NEXT
        # End-to-end fields untouched.
        assert decision.outgoing.dst == FAR
        assert decision.outgoing.src == OTHER

    def test_overhear_when_for_someone_else(self, table):
        decision = classify(pkt(dst=FAR, via=NEXT), ME, table)
        assert decision.action is ForwardAction.OVERHEAR
        assert decision.outgoing is None

    def test_no_route_when_table_lacks_destination(self, table):
        decision = classify(pkt(dst=0x00AA, via=ME), ME, table)
        assert decision.action is ForwardAction.NO_ROUTE

    def test_deliver_takes_precedence_over_forward(self, table):
        # dst == me AND via == me: delivery wins (no self-forwarding loop).
        decision = classify(pkt(dst=ME, via=ME), ME, table)
        assert decision.action is ForwardAction.DELIVER

    def test_ping_pong_flagged_when_next_hop_is_previous_transmitter(self, table):
        decision = classify(pkt(dst=FAR, via=ME), ME, table, previous_hop=NEXT)
        assert decision.action is ForwardAction.FORWARD
        assert decision.ping_pong
        # The frame is still forwarded — the firmware has no previous-hop
        # knowledge, so the flag must never change behaviour.
        assert decision.outgoing.via == NEXT

    def test_ping_pong_clear_when_previous_hop_differs(self, table):
        decision = classify(pkt(dst=FAR, via=ME), ME, table, previous_hop=OTHER)
        assert decision.action is ForwardAction.FORWARD
        assert not decision.ping_pong

    def test_ping_pong_clear_without_previous_hop(self, table):
        decision = classify(pkt(dst=FAR, via=ME), ME, table)
        assert decision.action is ForwardAction.FORWARD
        assert not decision.ping_pong

    def test_control_packets_forwarded_too(self, table):
        ackpkt = AckPacket(dst=FAR, src=OTHER, via=ME, seq_id=1, number=2)
        decision = classify(ackpkt, ME, table)
        assert decision.action is ForwardAction.FORWARD
        assert isinstance(decision.outgoing, AckPacket)
        assert decision.outgoing.seq_id == 1


class TestSharedDecisions:
    """Action-only decisions are shared frozen objects; FORWARD is not."""

    @pytest.mark.parametrize(
        "dst,via,action",
        [
            (FAR, NEXT, ForwardAction.OVERHEAR),
            (ME, ME, ForwardAction.DELIVER),
            (BROADCAST_ADDRESS, BROADCAST_ADDRESS, ForwardAction.DELIVER),
            (0x00AA, ME, ForwardAction.NO_ROUTE),
        ],
    )
    def test_action_only_decisions_are_shared(self, table, dst, via, action):
        first = classify(pkt(dst=dst, via=via), ME, table)
        second = classify(pkt(dst=dst, via=via, src=FAR), ME, table, previous_hop=FAR)
        assert first is second
        assert first.action is action

    def test_shared_decision_is_frozen(self, table):
        decision = classify(pkt(dst=FAR, via=NEXT), ME, table)
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.action = ForwardAction.FORWARD
        assert classify(pkt(dst=FAR, via=NEXT), ME, table).action is ForwardAction.OVERHEAR

    def test_forward_builds_a_fresh_decision(self, table):
        packet = pkt(dst=FAR, via=ME)
        first = classify(packet, ME, table)
        second = classify(packet, ME, table, previous_hop=NEXT)
        assert first is not second
        assert first.outgoing is not packet and first.outgoing is not second.outgoing
        assert first.outgoing == second.outgoing == rewrite_via(packet, NEXT)
        assert packet.via == ME  # the received packet is left as it was
        assert (first.ping_pong, second.ping_pong) == (False, True)


class _TaggedAck(AckPacket):
    """A via-packet subclass: forwarded as itself."""


def _every_field_set(cls):
    """A ``cls`` packet with every field away from its default and from
    the others, so a rewrite that drops or swaps a field shows."""
    values = {}
    for number, f in enumerate(dataclasses.fields(cls), start=0x10):
        if f.name == "type":
            values[f.name] = PacketType.LOST if f.default is not PacketType.LOST else PacketType.ACK
        elif f.type == "bytes":
            values[f.name] = b"field %d" % number
        else:
            values[f.name] = number
    packet = cls(**values)
    assert all(getattr(packet, f.name) != f.default for f in dataclasses.fields(cls))
    return packet


class TestRewrite:
    def test_rewrite_preserves_all_other_fields(self):
        original = XLDataPacket(dst=FAR, src=OTHER, via=ME, seq_id=3, number=17, payload=b"frag")
        rewritten = rewrite_via(original, NEXT)
        assert rewritten.via == NEXT
        assert rewritten.seq_id == 3
        assert rewritten.number == 17
        assert rewritten.payload == b"frag"

    def test_rewrite_sync_keeps_total_bytes(self):
        original = SyncPacket(dst=FAR, src=OTHER, via=ME, seq_id=1, number=9, total_bytes=2048)
        assert rewrite_via(original, NEXT).total_bytes == 2048

    @pytest.mark.parametrize(
        "cls",
        [DataPacket, NeedAckPacket, AckPacket, LostPacket, SyncPacket, XLDataPacket, _TaggedAck],
        ids=["data", "need-ack", "ack", "lost", "sync", "xl-data", "subclass"],
    )
    def test_rewrite_is_replace_of_via(self, cls):
        original = _every_field_set(cls)
        rewritten = rewrite_via(original, NEXT)
        assert type(rewritten) is cls
        assert rewritten == dataclasses.replace(original, via=NEXT)

    def test_rewrite_unknown_type_raises(self):
        with pytest.raises(TypeError):
            rewrite_via("not a packet", NEXT)  # type: ignore[arg-type]


class TestInitialVia:
    def test_known_destination(self, table):
        assert initial_via(FAR, ME, table) == NEXT

    def test_unknown_destination(self, table):
        assert initial_via(0x00AA, ME, table) is None

    def test_broadcast_maps_to_broadcast(self, table):
        assert initial_via(BROADCAST_ADDRESS, ME, table) == BROADCAST_ADDRESS

    def test_self_destination_rejected(self, table):
        with pytest.raises(ValueError):
            initial_via(ME, ME, table)
