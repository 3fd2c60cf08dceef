"""Byte-exact packet encode/decode.

Every packet travels the simulated air as the same bytes the firmware
would emit, so airtime computations and fragmentation limits are faithful.
Decoding is strict: a malformed buffer raises :class:`DecodeError`, which
the packet service treats like a CRC failure (drop and count).
"""

from __future__ import annotations

import itertools
import struct
from operator import attrgetter
from typing import Tuple, get_type_hints

from repro.net import packets as pk
from repro.net.packets import (
    AckPacket,
    DataPacket,
    LostPacket,
    NeedAckPacket,
    Packet,
    PacketType,
    RoutingEntry,
    RoutingPacket,
    SyncPacket,
    XLDataPacket,
)

_HEADER = struct.Struct("<HHBB")  # dst, src, type, payload_len
_ROUTE_ENTRY = struct.Struct("<HBB")  # address, metric, role
_VIA = struct.Struct("<H")
_CONTROL = struct.Struct("<HBH")  # via, seq_id, number
_SYNC_TAIL = struct.Struct("<I")  # total_bytes

assert _HEADER.size == pk.HEADER_SIZE
assert _ROUTE_ENTRY.size == pk.ROUTING_ENTRY_SIZE
assert _CONTROL.size == pk.CONTROL_SIZE


class DecodeError(Exception):
    """Raised for any buffer that is not a well-formed packet."""


def _evict_oldest_half(cache: dict) -> None:
    """Drop the least recently inserted half of the decode memo.

    A wholesale clear made a large network (every node beaconing a
    multi-frame table) rebuild the whole working set right after each
    overflow; keeping the newer half keeps the hot entries resident.
    """
    for key in list(itertools.islice(iter(cache), len(cache) // 2)):
        del cache[key]


def encode(packet: Packet) -> bytes:
    """Serialize a packet to its over-the-air bytes.

    The packet also seeds the :func:`decode` memo with itself when its
    bytes are not memoized yet and the decoder would rebuild it exactly
    (see :func:`_rebuilt_exactly`), so every listener of a frame shares
    the sender's packet object instead of parsing a copy: a beacon's
    listeners merge its ``entries`` straight, a data frame's listeners
    classify and forward the packet the sender queued.  An equal buffer
    already memoized keeps its object, so every listener of one content
    gets one packet, even when the sender rebuilt it (an unchanged hello
    chunk, a retransmission).

    Nothing is memoized by packet identity: few encodes repeat a packet
    object (a reused hello, a retransmission), and such a memo would pin
    every packet it keys.
    """
    buffer = _encode(packet)
    if buffer not in _DECODE_CACHE and _rebuilt_exactly(packet):
        _memoize_decode(buffer, packet)
    return buffer


def _decoded_shape(cls) -> tuple:
    """What :func:`_decode` builds for ``cls``, read off the class: its
    wire type (the ``type`` default), a getter of its int fields, and
    whether it slices a ``payload`` off the body."""
    hints = get_type_hints(cls)
    ints = [name for name, hint in hints.items() if hint is int]
    return cls.type, attrgetter(*ints), "payload" in hints


#: Per packet class the decoder builds, its :func:`_decoded_shape`.
_DECODED_SHAPES = {
    cls: _decoded_shape(cls)
    for cls in (
        RoutingPacket,
        DataPacket,
        NeedAckPacket,
        AckPacket,
        LostPacket,
        SyncPacket,
        XLDataPacket,
    )
}


def _rebuilt_exactly(packet: Packet) -> bool:
    """Whether :func:`_decode` of the packet's bytes builds an identical
    packet: exactly a class the decoder builds, typed with that class's
    wire type, every int field a plain ``int``, a ``payload`` of exactly
    ``bytes``, and (ROUTING) no address-0 row, the one row check the
    decoder adds.  Anything else (a subclass, a ``bytearray`` payload, a
    ``bool`` field) is equal on the wire but not what a listener would
    get, so its listeners parse the bytes."""
    shape = _DECODED_SHAPES.get(type(packet))
    if shape is None:
        return False
    wire_type, ints_of, has_payload = shape
    if packet.type is not wire_type:
        return False
    for value in ints_of(packet):
        if type(value) is not int:
            return False
    if has_payload:
        return type(packet.payload) is bytes
    if wire_type is PacketType.ROUTING:
        return all(entry.address for entry in packet.entries)
    return True


def _encode(packet: Packet) -> bytes:
    if isinstance(packet, RoutingPacket):
        body = b"".join(
            _ROUTE_ENTRY.pack(e.address, e.metric, e.role) for e in packet.entries
        )
    elif isinstance(packet, DataPacket):
        body = _VIA.pack(packet.via) + packet.payload
    elif isinstance(packet, NeedAckPacket):
        body = _CONTROL.pack(packet.via, packet.seq_id, packet.number) + packet.payload
    elif isinstance(packet, (AckPacket, LostPacket)):
        body = _CONTROL.pack(packet.via, packet.seq_id, packet.number)
    elif isinstance(packet, SyncPacket):
        body = _CONTROL.pack(packet.via, packet.seq_id, packet.number) + _SYNC_TAIL.pack(
            packet.total_bytes
        )
    elif isinstance(packet, XLDataPacket):
        body = _CONTROL.pack(packet.via, packet.seq_id, packet.number) + packet.payload
    else:
        raise TypeError(f"cannot encode {type(packet).__name__}")

    if len(body) > 0xFF:
        raise ValueError(f"packet body {len(body)} B exceeds the u8 length field")
    frame = _HEADER.pack(packet.dst, packet.src, int(packet.type), len(body)) + body
    if len(frame) > pk.MAX_PHY_PAYLOAD:
        raise ValueError(f"encoded frame {len(frame)} B exceeds the 255 B PHY limit")
    return frame


#: Memo for :func:`decode`, keyed by the frame bytes.  Packets are frozen
#: dataclasses and decoding is pure, so a frame delivered to k listeners
#: is one packet object for all of them; :func:`encode` seeds it with
#: every packet the decoder would rebuild exactly.  Only packets the
#: decoder would return are cached; malformed buffers re-raise on every
#: call (they are rare).
#:
#: Its working set is the frames on the air, not the run's history: a
#: frame goes in when its sender encodes it, and all of its listeners
#: decode it in the same completion call, one airtime later; only a
#: re-send of identical bytes hits it after that.  The cap must outlast
#: the frames encoded while one frame is on the air.  On instance 0
#: (seed 1) of the benchmark workloads no frame reaches the parser at
#: this cap, neither the 7x7 soak's 18,380 frames nor the 300-node cold
#: start's 9,597; a 9-node mesh carrying flows parses none at a cap of
#: 16 and one at a cap of 4.
_DECODE_CACHE: dict = {}
_DECODE_CACHE_MAX = 1_024


def decode(buffer: bytes) -> Packet:
    """Parse over-the-air bytes back into a packet object.

    Memoized on the buffer bytes: the returned packet objects are frozen,
    so callers receiving the same frame share one instance.  A frame's
    bytes are memoized when its sender encodes them (see :func:`encode`),
    so its listeners get the sender's own packet: the routing table
    merges a beacon straight from its ``entries``, and nothing is parsed
    or copied per frame.  This is the codec's only memo, and nothing
    downstream keys on the shared objects' identity.  It holds the frames
    on the air; older frames are evicted, and a buffer that was never
    encoded in this process (a ghost frame from another shard, a
    corrupted copy) or was evicted before its listeners heard it is
    parsed once and memoized for the rest of them.
    """
    packet = _DECODE_CACHE.get(buffer)
    if packet is None:
        packet = _decode(buffer)
        _memoize_decode(buffer, packet)
    return packet


def _memoize_decode(buffer: bytes, packet: Packet) -> None:
    if len(_DECODE_CACHE) >= _DECODE_CACHE_MAX:
        _evict_oldest_half(_DECODE_CACHE)
    _DECODE_CACHE[buffer] = packet


def _decode(buffer: bytes) -> Packet:
    if len(buffer) < pk.HEADER_SIZE:
        raise DecodeError(f"buffer of {len(buffer)} B shorter than the header")
    dst, src, type_code, payload_len = _HEADER.unpack_from(buffer)
    body = buffer[pk.HEADER_SIZE :]
    if len(body) != payload_len:
        raise DecodeError(
            f"length field says {payload_len} B but {len(body)} B follow the header"
        )
    try:
        ptype = PacketType(type_code)
    except ValueError as exc:
        raise DecodeError(f"unknown packet type {type_code}") from exc

    try:
        if ptype is PacketType.ROUTING:
            return _decode_routing(dst, src, body)
        if ptype is PacketType.DATA:
            return _decode_data(dst, src, body)
        via, seq_id, number, rest = _decode_control_prefix(body)
        if ptype is PacketType.NEED_ACK:
            return NeedAckPacket(dst=dst, src=src, via=via, seq_id=seq_id, number=number, payload=rest)
        if ptype is PacketType.ACK:
            _expect_empty(rest, "ACK")
            return AckPacket(dst=dst, src=src, via=via, seq_id=seq_id, number=number)
        if ptype is PacketType.LOST:
            _expect_empty(rest, "LOST")
            return LostPacket(dst=dst, src=src, via=via, seq_id=seq_id, number=number)
        if ptype is PacketType.SYNC:
            if len(rest) != _SYNC_TAIL.size:
                raise DecodeError(f"SYNC tail is {len(rest)} B, expected {_SYNC_TAIL.size}")
            (total_bytes,) = _SYNC_TAIL.unpack(rest)
            return SyncPacket(
                dst=dst, src=src, via=via, seq_id=seq_id, number=number, total_bytes=total_bytes
            )
        if ptype is PacketType.XL_DATA:
            return XLDataPacket(dst=dst, src=src, via=via, seq_id=seq_id, number=number, payload=rest)
    except ValueError as exc:  # dataclass validation on hostile input
        raise DecodeError(str(exc)) from exc
    raise DecodeError(f"unhandled packet type {ptype}")  # pragma: no cover


def _decode_routing(dst: int, src: int, body: bytes) -> RoutingPacket:
    if len(body) % pk.ROUTING_ENTRY_SIZE != 0:
        raise DecodeError(
            f"ROUTING body of {len(body)} B is not a multiple of {pk.ROUTING_ENTRY_SIZE}"
        )
    # The struct layout guarantees metric/role fit u8 and address fits
    # u16, so only the non-zero address rule needs an explicit check —
    # entries skip dataclass re-validation via the trusted constructor.
    rows = tuple(_ROUTE_ENTRY.iter_unpack(body))
    for address, _metric, _role in rows:
        if address == 0:
            raise DecodeError(f"bad routing-entry address {address:#x}")
    from_wire = RoutingEntry.trusted
    entries = tuple(from_wire(addr, metric, role) for addr, metric, role in rows)
    return RoutingPacket(dst=dst, src=src, entries=entries)


def _decode_data(dst: int, src: int, body: bytes) -> DataPacket:
    if len(body) < _VIA.size:
        raise DecodeError("DATA body shorter than the via field")
    (via,) = _VIA.unpack_from(body)
    return DataPacket(dst=dst, src=src, via=via, payload=body[_VIA.size :])


def _decode_control_prefix(body: bytes) -> Tuple[int, int, int, bytes]:
    if len(body) < _CONTROL.size:
        raise DecodeError("control body shorter than via+seq_id+number")
    via, seq_id, number = _CONTROL.unpack_from(body)
    return via, seq_id, number, body[_CONTROL.size :]


def _expect_empty(rest: bytes, kind: str) -> None:
    if rest:
        raise DecodeError(f"{kind} packet carries {len(rest)} unexpected payload bytes")


def encoded_size(packet: Packet) -> int:
    """Size of the packet on the wire without building the bytes."""
    if isinstance(packet, RoutingPacket):
        return pk.HEADER_SIZE + len(packet.entries) * pk.ROUTING_ENTRY_SIZE
    if isinstance(packet, DataPacket):
        return pk.HEADER_SIZE + pk.VIA_SIZE + len(packet.payload)
    if isinstance(packet, (NeedAckPacket, XLDataPacket)):
        return pk.HEADER_SIZE + pk.CONTROL_SIZE + len(packet.payload)
    if isinstance(packet, (AckPacket, LostPacket)):
        return pk.HEADER_SIZE + pk.CONTROL_SIZE
    if isinstance(packet, SyncPacket):
        return pk.HEADER_SIZE + pk.CONTROL_SIZE + _SYNC_TAIL.size
    raise TypeError(f"cannot size {type(packet).__name__}")
