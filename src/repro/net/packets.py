"""Packet types and in-memory packet structures.

The over-the-air format mirrors the C structs of the LoRaMesher firmware:
a fixed 6-byte header (destination, source, type, payload length) followed
by a type-specific payload.  All packets that travel point-to-point carry
a 2-byte ``via`` field naming the next hop, which is how intermediate
nodes know a frame is theirs to forward.

Wire layout (little-endian, matching the ESP32's struct packing)::

    header      : dst:u16  src:u16  type:u8  payload_len:u8          (6 B)
    ROUTING     : n x ( address:u16  metric:u8  role:u8 )
    DATA        : via:u16  app_payload...
    NEED_ACK    : via:u16  seq_id:u8  number:u16  app_payload...
    ACK         : via:u16  seq_id:u8  number:u16
    LOST        : via:u16  seq_id:u8  number:u16
    SYNC        : via:u16  seq_id:u8  number:u16  total_bytes:u32
    XL_DATA     : via:u16  seq_id:u8  number:u16  fragment_bytes...

Byte-exact encode/decode lives in :mod:`repro.net.serialization`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Union

from repro.net.addresses import BROADCAST_ADDRESS

#: Fixed header size on the wire.
HEADER_SIZE = 6
#: LoRa PHY payload ceiling; every encoded packet must fit this.
MAX_PHY_PAYLOAD = 255
#: via field size.
VIA_SIZE = 2
#: via + seq_id + number control preamble size.
CONTROL_SIZE = VIA_SIZE + 1 + 2
#: Max application bytes in one DATA packet.
MAX_DATA_PAYLOAD = MAX_PHY_PAYLOAD - HEADER_SIZE - VIA_SIZE
#: Max application bytes in one NEED_ACK or XL_DATA packet.
MAX_CONTROL_PAYLOAD = MAX_PHY_PAYLOAD - HEADER_SIZE - CONTROL_SIZE
#: Bytes per routing entry on the wire.
ROUTING_ENTRY_SIZE = 4
#: Max routing entries per ROUTING packet.
MAX_ROUTING_ENTRIES = (MAX_PHY_PAYLOAD - HEADER_SIZE) // ROUTING_ENTRY_SIZE


class PacketType(enum.IntEnum):
    """On-the-wire packet type codes."""

    ROUTING = 1  # hello: the sender's routing-table view
    DATA = 2  # unreliable unicast/broadcast application data
    NEED_ACK = 3  # single reliable application packet (expects ACK)
    ACK = 4  # acknowledgement for NEED_ACK / XL stream completion
    LOST = 5  # receiver reports a missing fragment number
    SYNC = 6  # opens a large-payload stream (fragment count, size)
    XL_DATA = 7  # one fragment of a large payload


class NodeRole(enum.IntFlag):
    """Role bits advertised in routing entries (the firmware uses these to
    mark gateway-capable nodes)."""

    DEFAULT = 0
    GATEWAY = 1


#: Interned trusted RoutingEntry rows.  The cap bounds pathological key
#: churn (hostile metrics sweeping the u8 space); real meshes use a few
#: thousand (address, metric, role) combinations.
_TRUSTED_INTERN: dict = {}
_TRUSTED_INTERN_MAX = 1 << 18


@dataclass(frozen=True, slots=True)
class RoutingEntry:
    """One row of a ROUTING packet: a destination the sender can reach.

    Instances built via :meth:`trusted` are interned and therefore
    shared; they are frozen, so sharing is unobservable except through
    ``id()``."""

    address: int
    metric: int
    role: int = int(NodeRole.DEFAULT)

    def __post_init__(self) -> None:
        if not 0 < self.address <= 0xFFFF:
            raise ValueError(f"bad routing-entry address {self.address:#x}")
        if not 0 <= self.metric <= 0xFF:
            raise ValueError(f"metric {self.metric} does not fit u8")
        if not 0 <= self.role <= 0xFF:
            raise ValueError(f"role {self.role} does not fit u8")

    @classmethod
    def trusted(cls, address: int, metric: int, role: int) -> "RoutingEntry":
        """Construct without re-running ``__post_init__`` validation.

        For fields that are already range-guaranteed — unpacked from the
        u16/u8/u8 wire structs or copied from an existing validated entry.
        Every table snapshot and every decoded ROUTING frame builds tens
        of entries, and the value space is tiny (addresses x metrics x
        roles actually in use), so entries are interned: frozen rows are
        shared instead of allocated.
        """
        key = (cls, address, metric, role)
        self = _TRUSTED_INTERN.get(key)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "address", address)
            object.__setattr__(self, "metric", metric)
            object.__setattr__(self, "role", role)
            if len(_TRUSTED_INTERN) >= _TRUSTED_INTERN_MAX:
                _TRUSTED_INTERN.clear()
            _TRUSTED_INTERN[key] = self
        return self


@dataclass(frozen=True)
class RoutingPacket:
    """Hello packet: broadcast of the sender's routing table."""

    src: int
    entries: tuple  # tuple[RoutingEntry, ...]
    dst: int = BROADCAST_ADDRESS

    type: "PacketType" = PacketType.ROUTING

    def __post_init__(self) -> None:
        if len(self.entries) > MAX_ROUTING_ENTRIES:
            raise ValueError(
                f"{len(self.entries)} routing entries exceed the "
                f"per-packet maximum {MAX_ROUTING_ENTRIES}"
            )
        object.__setattr__(self, "entries", tuple(self.entries))


@dataclass(frozen=True)
class DataPacket:
    """Unreliable application data, forwarded hop-by-hop via ``via``."""

    dst: int
    src: int
    via: int
    payload: bytes

    type: "PacketType" = PacketType.DATA

    def __post_init__(self) -> None:
        if len(self.payload) > MAX_DATA_PAYLOAD:
            raise ValueError(
                f"DATA payload {len(self.payload)} B exceeds {MAX_DATA_PAYLOAD} B"
            )


@dataclass(frozen=True)
class _ControlBase:
    """Shared shape of the reliable-stream control packets."""

    dst: int
    src: int
    via: int
    seq_id: int
    number: int

    def __post_init__(self) -> None:
        if not 0 <= self.seq_id <= 0xFF:
            raise ValueError(f"seq_id {self.seq_id} does not fit u8")
        if not 0 <= self.number <= 0xFFFF:
            raise ValueError(f"number {self.number} does not fit u16")


@dataclass(frozen=True)
class NeedAckPacket(_ControlBase):
    """A single reliable application packet; the receiver must ACK it."""

    payload: bytes = b""
    type: "PacketType" = PacketType.NEED_ACK

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.payload) > MAX_CONTROL_PAYLOAD:
            raise ValueError(
                f"NEED_ACK payload {len(self.payload)} B exceeds {MAX_CONTROL_PAYLOAD} B"
            )


@dataclass(frozen=True)
class AckPacket(_ControlBase):
    """Acknowledges ``number`` of stream ``seq_id`` (or a NEED_ACK)."""

    type: "PacketType" = PacketType.ACK


@dataclass(frozen=True)
class LostPacket(_ControlBase):
    """Receiver-side report: fragment ``number`` of ``seq_id`` is missing."""

    type: "PacketType" = PacketType.LOST


@dataclass(frozen=True)
class SyncPacket(_ControlBase):
    """Opens a large-payload stream: ``number`` fragments, ``total_bytes``."""

    total_bytes: int = 0
    type: "PacketType" = PacketType.SYNC

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.total_bytes <= 0xFFFFFFFF:
            raise ValueError(f"total_bytes {self.total_bytes} does not fit u32")


@dataclass(frozen=True)
class XLDataPacket(_ControlBase):
    """Fragment ``number`` (0-based) of large-payload stream ``seq_id``."""

    payload: bytes = b""
    type: "PacketType" = PacketType.XL_DATA

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.payload) > MAX_CONTROL_PAYLOAD:
            raise ValueError(
                f"XL_DATA fragment {len(self.payload)} B exceeds {MAX_CONTROL_PAYLOAD} B"
            )


#: Every packet class the serializer knows.
Packet = Union[
    RoutingPacket,
    DataPacket,
    NeedAckPacket,
    AckPacket,
    LostPacket,
    SyncPacket,
    XLDataPacket,
]

#: Packets that carry a next-hop via field (everything but ROUTING).
ViaPacket = Union[DataPacket, NeedAckPacket, AckPacket, LostPacket, SyncPacket, XLDataPacket]


def has_via(packet: Packet) -> bool:
    """Whether the packet travels point-to-point through a next hop."""
    return not isinstance(packet, RoutingPacket)
