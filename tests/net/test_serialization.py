"""Tests for byte-exact packet encoding/decoding."""

import struct

import pytest

from repro.net import packets as pk
from repro.net.packets import (
    AckPacket,
    DataPacket,
    LostPacket,
    NeedAckPacket,
    PacketType,
    RoutingEntry,
    RoutingPacket,
    SyncPacket,
    XLDataPacket,
)
from repro.net import serialization
from repro.net.serialization import DecodeError, decode, encode, encoded_size


SAMPLE_PACKETS = [
    RoutingPacket(src=0x0A0B, entries=()),
    RoutingPacket(
        src=0x0A0B,
        entries=(RoutingEntry(address=0x0001, metric=0), RoutingEntry(address=0x0002, metric=3, role=1)),
    ),
    DataPacket(dst=0x0001, src=0x0002, via=0x0003, payload=b"hello"),
    DataPacket(dst=0xFFFF, src=0x0002, via=0xFFFF, payload=b""),
    NeedAckPacket(dst=1, src=2, via=3, seq_id=7, number=0, payload=b"reliable"),
    AckPacket(dst=1, src=2, via=3, seq_id=7, number=12),
    LostPacket(dst=1, src=2, via=3, seq_id=7, number=4),
    SyncPacket(dst=1, src=2, via=3, seq_id=9, number=40, total_bytes=7000),
    XLDataPacket(dst=1, src=2, via=3, seq_id=9, number=5, payload=bytes(range(100))),
    # A full ROUTING frame: the largest hello chunk the table sends.
    RoutingPacket(
        src=0x0A0B,
        entries=tuple(
            RoutingEntry(address=0x0100 + i, metric=i % 7, role=i % 2)
            for i in range(pk.MAX_ROUTING_ENTRIES)
        ),
    ),
]


class TestRoundTrip:
    @pytest.mark.parametrize("packet", SAMPLE_PACKETS, ids=lambda p: type(p).__name__)
    def test_encode_decode_roundtrip(self, packet):
        assert decode(encode(packet)) == packet
        # decode() hands back a seeded ROUTING packet without parsing;
        # the decoder itself must round-trip too.
        assert serialization._decode(encode(packet)) == packet

    @pytest.mark.parametrize("packet", SAMPLE_PACKETS, ids=lambda p: type(p).__name__)
    def test_encoded_size_matches(self, packet):
        assert len(encode(packet)) == encoded_size(packet)

    def test_all_frames_fit_phy_limit(self):
        big = XLDataPacket(dst=1, src=2, via=3, seq_id=0, number=0, payload=bytes(pk.MAX_CONTROL_PAYLOAD))
        assert len(encode(big)) <= pk.MAX_PHY_PAYLOAD


class _TaggedRoutingPacket(RoutingPacket):
    """Equal on the wire to a RoutingPacket, but not what decode builds."""


class _TaggedDataPacket(DataPacket):
    """Equal on the wire to a DataPacket, but not what decode builds."""


class _TaggedBytes(bytes):
    """Equal to its bytes, but not the ``bytes`` the decoder slices."""


class TestDecodeMemoSeeding:
    def test_equal_routing_packets_decode_to_the_first_encoded(self, monkeypatch):
        monkeypatch.setattr(serialization, "_DECODE_CACHE", {})
        entries = tuple(RoutingEntry(address=0x7100 + i, metric=i) for i in range(3))
        first = RoutingPacket(src=0x7A01, entries=entries)
        second = RoutingPacket(src=0x7A01, entries=tuple(list(entries)))
        assert first == second and first is not second
        assert decode(encode(first)) is first
        assert decode(encode(second)) is first

    @pytest.mark.parametrize(
        "packet",
        [
            DataPacket(dst=0x7C01, src=0x7C02, via=0x7C03, payload=b"seeded"),
            NeedAckPacket(dst=0x7C01, src=0x7C02, via=0x7C03, seq_id=7, number=0, payload=b"one"),
            AckPacket(dst=0x7C01, src=0x7C02, via=0x7C03, seq_id=7, number=12),
            LostPacket(dst=0x7C01, src=0x7C02, via=0x7C03, seq_id=7, number=4),
            SyncPacket(dst=0x7C01, src=0x7C02, via=0x7C03, seq_id=9, number=40, total_bytes=7000),
            XLDataPacket(dst=0x7C01, src=0x7C02, via=0x7C03, seq_id=9, number=5, payload=bytes(100)),
        ],
        ids=["data", "need-ack", "ack", "lost", "sync", "xl-data"],
    )
    def test_via_packets_are_seeded(self, monkeypatch, packet):
        # Every listener of the frame shares the sender's packet.
        monkeypatch.setattr(serialization, "_DECODE_CACHE", {})
        assert decode(encode(packet)) is packet

    @pytest.mark.parametrize(
        "packet",
        [
            # Same class, but typed DATA: the bytes decode as a DataPacket.
            RoutingPacket(src=0x7B04, entries=(RoutingEntry(address=0x7B05, metric=1),), type=PacketType.DATA),
            _TaggedRoutingPacket(src=0x7B06, entries=(RoutingEntry(address=0x7B07, metric=1),)),
            _TaggedDataPacket(dst=0x7B08, src=0x7B09, via=0x7B0A, payload=b"tagged"),
            # A mutable payload the decoder would hand out as bytes.
            DataPacket(dst=0x7B0B, src=0x7B0C, via=0x7B0D, payload=bytearray(b"mutable")),
            XLDataPacket(dst=0x7B0E, src=0x7B0F, via=0x7B10, seq_id=1, number=2, payload=_TaggedBytes(b"xl")),
            # Equal to 1 on the wire, but the decoder unpacks a plain int.
            AckPacket(dst=0x7B11, src=0x7B12, via=0x7B13, seq_id=True, number=3),
        ],
        ids=[
            "routing-typed-data",
            "routing-subclass",
            "subclass-of-data",
            "bytearray-payload",
            "bytes-subclass-payload",
            "bool-field",
        ],
    )
    def test_only_what_the_decoder_builds_is_seeded(self, monkeypatch, packet):
        monkeypatch.setattr(serialization, "_DECODE_CACHE", {})
        decoded = decode(encode(packet))
        assert decoded is not packet
        assert decoded == serialization._decode(encode(packet))


class TestWireLayout:
    def test_header_layout_little_endian(self):
        frame = encode(DataPacket(dst=0x0102, src=0x0304, via=0x0506, payload=b"AB"))
        dst, src, ptype, length = struct.unpack_from("<HHBB", frame)
        assert dst == 0x0102
        assert src == 0x0304
        assert ptype == int(PacketType.DATA)
        assert length == 4  # via(2) + payload(2)
        (via,) = struct.unpack_from("<H", frame, 6)
        assert via == 0x0506
        assert frame[8:] == b"AB"

    def test_routing_entry_is_four_bytes(self):
        one = encode(RoutingPacket(src=1, entries=(RoutingEntry(address=2, metric=1),)))
        two = encode(
            RoutingPacket(
                src=1,
                entries=(RoutingEntry(address=2, metric=1), RoutingEntry(address=3, metric=2)),
            )
        )
        assert len(two) - len(one) == 4

    def test_header_is_six_bytes(self):
        assert len(encode(RoutingPacket(src=1, entries=()))) == 6

    def test_ack_frame_is_eleven_bytes(self):
        # header(6) + via(2) + seq(1) + number(2)
        assert len(encode(AckPacket(dst=1, src=2, via=3, seq_id=0, number=0))) == 11


class TestDecodeErrors:
    def test_truncated_header(self):
        with pytest.raises(DecodeError):
            decode(b"\x01\x02\x03")

    def test_length_field_mismatch(self):
        frame = bytearray(encode(DataPacket(dst=1, src=2, via=3, payload=b"xy")))
        frame[5] += 1  # corrupt the length field
        with pytest.raises(DecodeError):
            decode(bytes(frame))

    def test_unknown_type(self):
        frame = bytearray(encode(AckPacket(dst=1, src=2, via=3, seq_id=0, number=0)))
        frame[4] = 0x7F
        with pytest.raises(DecodeError):
            decode(bytes(frame))

    def test_routing_body_not_multiple_of_entry_size(self):
        frame = struct.pack("<HHBB", 0xFFFF, 1, int(PacketType.ROUTING), 3) + b"\x01\x02\x03"
        with pytest.raises(DecodeError):
            decode(frame)

    def test_ack_with_trailing_garbage(self):
        frame = struct.pack("<HHBB", 1, 2, int(PacketType.ACK), 7) + struct.pack("<HBH", 3, 0, 0) + b"!"
        with pytest.raises(DecodeError):
            decode(frame)

    def test_sync_with_short_tail(self):
        frame = struct.pack("<HHBB", 1, 2, int(PacketType.SYNC), 7) + struct.pack("<HBH", 3, 0, 1) + b"\x00\x00"
        with pytest.raises(DecodeError):
            decode(frame)

    def test_data_shorter_than_via(self):
        frame = struct.pack("<HHBB", 1, 2, int(PacketType.DATA), 1) + b"\x00"
        with pytest.raises(DecodeError):
            decode(frame)

    def test_empty_buffer(self):
        with pytest.raises(DecodeError):
            decode(b"")

    def test_hostile_routing_entry_rejected(self):
        # A routing entry advertising address 0 fails dataclass validation,
        # surfaced as a DecodeError rather than ValueError — alone, and as
        # the last row of a full frame.
        # The same bytes from encode() of a packet holding an unvalidated
        # address-0 row must not be seeded into the decode memo either.
        for n_rows in (1, pk.MAX_ROUTING_ENTRIES):
            rows = [(0x0100 + i, 1, 0) for i in range(n_rows - 1)] + [(0, 1, 0)]
            body = b"".join(struct.pack("<HBB", *row) for row in rows)
            frame = struct.pack("<HHBB", 0xFFFF, 1, int(PacketType.ROUTING), len(body)) + body
            hostile = RoutingPacket(src=1, entries=tuple(RoutingEntry.trusted(*row) for row in rows))
            for buffer in (frame, encode(hostile)):
                with pytest.raises(DecodeError):
                    decode(buffer)

    def test_decode_never_raises_bare_valueerror(self):
        # Fuzz a few corrupted buffers: only DecodeError may escape.
        base = bytearray(encode(SyncPacket(dst=1, src=2, via=3, seq_id=1, number=2, total_bytes=10)))
        for i in range(len(base)):
            corrupted = bytearray(base)
            corrupted[i] ^= 0xFF
            try:
                decode(bytes(corrupted))
            except DecodeError:
                pass
