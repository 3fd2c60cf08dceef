"""Controlled flooding over LoRa.

The zero-state alternative to routing: the source broadcasts, every node
that hears a new packet rebroadcasts it once (after a random backoff),
and a TTL bounds the blast radius.  Duplicate suppression uses a
(source, sequence) cache.

Wire format (distinct from the mesh format — a flood frame must carry a
sequence number and TTL)::

    dst:u16  src:u16  type:u8(=0x81)  len:u8  seq:u16  ttl:u8  payload...
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.medium.channel import Medium
from repro.net.addresses import BROADCAST_ADDRESS, validate_address
from repro.net.api import FIRST_ADDRESS, Network
from repro.net.config import MesherConfig
from repro.net.mesher import AppMessage
from repro.net.pump import TxPump, TxStats
from repro.net.queues import PacketQueue
from repro.phy.pathloss import PathLossModel, Position
from repro.radio.driver import Radio
from repro.radio.frames import ReceivedFrame
from repro.sim.kernel import Simulator


_FLOOD_HEADER = struct.Struct("<HHBBHB")  # dst, src, type, len, seq, ttl
FLOOD_TYPE = 0x81
MAX_FLOOD_PAYLOAD = 255 - _FLOOD_HEADER.size
DEFAULT_TTL = 8


@dataclass(frozen=True)
class FloodFrame:
    """Decoded flood frame."""

    dst: int
    src: int
    seq: int
    ttl: int
    payload: bytes


def encode_flood(frame: FloodFrame) -> bytes:
    """Serialize a flood frame."""
    if len(frame.payload) > MAX_FLOOD_PAYLOAD:
        raise ValueError(f"flood payload {len(frame.payload)} B exceeds {MAX_FLOOD_PAYLOAD} B")
    return (
        _FLOOD_HEADER.pack(
            frame.dst, frame.src, FLOOD_TYPE, len(frame.payload), frame.seq, frame.ttl
        )
        + frame.payload
    )


def decode_flood(buffer: bytes) -> FloodFrame:
    """Parse a flood frame; raises ValueError on malformed input."""
    if len(buffer) < _FLOOD_HEADER.size:
        raise ValueError("buffer shorter than flood header")
    dst, src, type_code, length, seq, ttl = _FLOOD_HEADER.unpack_from(buffer)
    if type_code != FLOOD_TYPE:
        raise ValueError(f"not a flood frame (type {type_code:#x})")
    payload = buffer[_FLOOD_HEADER.size :]
    if len(payload) != length:
        raise ValueError("flood length field mismatch")
    return FloodFrame(dst=dst, src=src, seq=seq, ttl=ttl, payload=payload)


class FloodingNode:
    """One node of the flooding baseline."""

    #: Size of the duplicate-suppression cache (FIFO eviction).
    DEDUP_CAPACITY = 512
    #: Upper bound of the uniform pre-send backoff (seconds).
    BACKOFF_MAX_S = 0.5

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        address: int,
        position: Position,
        config: MesherConfig,
        rng,
        *,
        ttl: int = DEFAULT_TTL,
    ) -> None:
        validate_address(address)
        self.sim = sim
        self.address = address
        self.ttl = ttl
        self.radio = Radio(sim, medium, address, position, config.lora)
        self.radio.on_receive = self._on_frame
        self.stats = TxStats()
        self.pump = TxPump(
            sim,
            self.radio,
            PacketQueue(config.send_queue_capacity),
            self.stats,
            region=config.region,
            strict=config.strict_duty_cycle,
            name=f"flood{address}",
            backoff=lambda: rng.uniform(0, self.BACKOFF_MAX_S),
        )
        self.duty = self.pump.duty
        self._seq = 0
        self._seen: Set[Tuple[int, int]] = set()
        self._seen_order: List[Tuple[int, int]] = []
        self.inbox: List[AppMessage] = []
        self.on_message: Optional[Callable[[AppMessage], None]] = None

        # Counters
        self.originated = 0
        self.rebroadcasts = 0
        self.duplicates = 0
        self.delivered = 0

    def start(self) -> None:
        """Enter continuous receive."""
        self.radio.start_receive()

    # ------------------------------------------------------------------
    def send(self, dst: int, payload: bytes) -> bool:
        """Flood ``payload`` towards ``dst`` (or BROADCAST_ADDRESS);
        False when the outbox is full and drops it."""
        frame = FloodFrame(dst=dst, src=self.address, seq=self._seq, ttl=self.ttl, payload=payload)
        self._seq = (self._seq + 1) % 0x10000
        self._remember((frame.src, frame.seq))
        self.originated += 1
        return self.pump.submit(encode_flood(frame))

    def receive(self) -> Optional[AppMessage]:
        """Pop the next delivered message, or None."""
        return self.inbox.pop(0) if self.inbox else None

    # ------------------------------------------------------------------
    def _on_frame(self, rx: ReceivedFrame) -> None:
        if not rx.crc_ok:
            return
        try:
            frame = decode_flood(rx.payload)
        except ValueError:
            return
        key = (frame.src, frame.seq)
        if key in self._seen:
            self.duplicates += 1
            return
        self._remember(key)
        if frame.dst in (self.address, BROADCAST_ADDRESS):
            self.delivered += 1
            message = AppMessage(
                src=frame.src, payload=frame.payload, received_at=self.sim.now, reliable=False
            )
            self.inbox.append(message)
            if self.on_message is not None:
                self.on_message(message)
            if frame.dst == self.address:
                return  # unicast reached its target; do not keep flooding
        if frame.ttl > 1:
            relay = FloodFrame(
                dst=frame.dst, src=frame.src, seq=frame.seq, ttl=frame.ttl - 1, payload=frame.payload
            )
            self.rebroadcasts += 1
            self.pump.submit(encode_flood(relay))

    def _remember(self, key: Tuple[int, int]) -> None:
        self._seen.add(key)
        self._seen_order.append(key)
        if len(self._seen_order) > self.DEDUP_CAPACITY:
            oldest = self._seen_order.pop(0)
            self._seen.discard(oldest)


class FloodingNetwork(Network):
    """A deployment of flooding nodes on the config's radio and region."""

    def __init__(
        self,
        positions: Sequence[Position],
        *,
        config: Optional[MesherConfig] = None,
        seed: int = 0,
        pathloss: Optional[PathLossModel] = None,
        ttl: int = DEFAULT_TTL,
    ) -> None:
        if not positions:
            raise ValueError("a network needs at least one node position")
        super().__init__(seed=seed, pathloss=pathloss)
        config = config or MesherConfig()
        for i, position in enumerate(positions):
            address = FIRST_ADDRESS + i
            node = FloodingNode(
                self.sim,
                self.medium,
                address,
                position,
                config,
                self.rngs.stream(f"flood.{address}"),
                ttl=ttl,
            )
            node.start()
            self._nodes[address] = node
