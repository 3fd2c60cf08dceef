"""AODV-style reactive routing baseline.

LoRaMesher routes *proactively*: every node pays hello airtime all the
time so routes exist before traffic does.  The classic alternative is
*reactive* (on-demand) routing — discover a route only when a packet
needs one.  This module implements a deliberately compact AODV-lite on
the identical substrate so E10 can measure the actual trade-off:

* **RREQ** — when a node must send without a route it floods a route
  request (dedup + TTL, like the flooding baseline),
* **RREP** — the target answers with a route reply that travels back
  along the reverse path recorded by the RREQ flood; every node on the
  way learns the forward route,
* **DATA** — forwarded hop-by-hop through the discovered routes, which
  expire after ``route_lifetime_s`` of disuse.

Simplifications vs RFC 3561 (documented, deliberate): no destination
sequence numbers (only the target answers a RREQ, so freshness races
cannot arise), no RERR/local-repair (broken routes age out and the next
send re-discovers), no gratuitous RREPs.  Each frame carries a
``sender`` field updated per hop because the radio layer, like real
LoRa, does not expose the transmitter's identity.

Wire format (own framing, distinct from the mesh)::

    common  : dst:u16 src:u16 type:u8 len:u8 sender:u16
    RREQ    : + origin:u16 rreq_id:u16 target:u16 hops:u8 ttl:u8
    RREP    : + origin:u16 target:u16 hops:u8
    DATA    : + payload...
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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


_HEADER = struct.Struct("<HHBBH")  # dst, src, type, len(after header), sender
_RREQ = struct.Struct("<HHHBB")  # origin, rreq_id, target, hops, ttl
_RREP = struct.Struct("<HHB")  # origin, target, hops

TYPE_RREQ = 0x91
TYPE_RREP = 0x92
TYPE_DATA = 0x93

DEFAULT_RREQ_TTL = 8


@dataclass(frozen=True)
class AodvFrame:
    """Decoded AODV frame (body depends on type)."""

    dst: int
    src: int
    type: int
    sender: int
    body: bytes


def encode_frame(dst: int, src: int, type_: int, sender: int, body: bytes) -> bytes:
    """Serialize an AODV frame."""
    if len(body) > 0xFF:
        raise ValueError("AODV body too large")
    return _HEADER.pack(dst, src, type_, len(body), sender) + body


def decode_frame(buffer: bytes) -> AodvFrame:
    """Parse an AODV frame; raises ValueError when malformed."""
    if len(buffer) < _HEADER.size:
        raise ValueError("short AODV frame")
    dst, src, type_, length, sender = _HEADER.unpack_from(buffer)
    body = buffer[_HEADER.size :]
    if len(body) != length or type_ not in (TYPE_RREQ, TYPE_RREP, TYPE_DATA):
        raise ValueError("malformed AODV frame")
    return AodvFrame(dst=dst, src=src, type=type_, sender=sender, body=body)


@dataclass
class _Route:
    next_hop: int
    hops: int
    expires_at: float


@dataclass
class AodvStats(TxStats):
    """Per-node protocol counters."""

    rreqs_originated: int = 0
    rreqs_relayed: int = 0
    rreps_sent: int = 0
    rreps_forwarded: int = 0
    data_sent: int = 0
    data_forwarded: int = 0
    data_delivered: int = 0
    discovery_failures: int = 0
    buffered_drops: int = 0


class AodvNode:
    """One node of the reactive-routing baseline."""

    #: How long a discovered route stays valid without being refreshed.
    ROUTE_LIFETIME_S = 300.0
    #: RREQ retry schedule: attempts and wait per attempt.
    MAX_DISCOVERY_ATTEMPTS = 3
    DISCOVERY_WAIT_S = 15.0
    #: Per-destination buffer while discovering.
    BUFFER_CAPACITY = 8
    #: (origin, rreq_id) dedup cache size.
    DEDUP_CAPACITY = 256
    #: Upper bound of the uniform pre-send backoff (seconds).
    BACKOFF_MAX_S = 0.4
    #: Listen before talk: an RREQ flood plus its RREP all land within
    #: one backoff window; without CAD the reply reliably collides.
    CAD_RETRIES = 8

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        address: int,
        position: Position,
        config: MesherConfig,
        rng: random.Random,
    ) -> None:
        validate_address(address)
        self.sim = sim
        self.address = address
        self.radio = Radio(sim, medium, address, position, config.lora)
        self.radio.on_receive = self._on_frame
        self.stats = AodvStats()
        self.pump = TxPump(
            sim,
            self.radio,
            PacketQueue(config.send_queue_capacity),
            self.stats,
            region=config.region,
            strict=config.strict_duty_cycle,
            name=f"aodv{address:04x}",
            backoff=lambda: rng.uniform(0, self.BACKOFF_MAX_S),
            cad_retries=self.CAD_RETRIES,
            cad_delay=lambda: rng.uniform(0.02, self.BACKOFF_MAX_S),
        )
        self.duty = self.pump.duty
        self.routes: Dict[int, _Route] = {}
        self._rreq_id = 0
        self._seen_rreqs: Set[Tuple[int, int]] = set()
        self._seen_order: List[Tuple[int, int]] = []
        self._pending: Dict[int, List[bytes]] = {}  # dst -> buffered payloads
        self._discovering: Dict[int, int] = {}  # dst -> attempts made
        self.inbox: List[AppMessage] = []
        self.on_message: Optional[Callable[[AppMessage], None]] = None

    def start(self) -> None:
        """Enter continuous receive."""
        self.radio.start_receive()

    # ==================================================================
    # Application API
    # ==================================================================
    def send(self, dst: int, payload: bytes) -> bool:
        """Send a datagram, discovering a route first if needed; False
        when the outbox or the discovery buffer is full and drops it."""
        validate_address(dst)
        self.stats.data_sent += 1
        route = self._fresh_route(dst)
        if route is not None:
            return self._transmit_data(dst, self.address, route.next_hop, payload)
        # Buffer and (maybe) start discovery.
        queue = self._pending.setdefault(dst, [])
        if len(queue) >= self.BUFFER_CAPACITY:
            self.stats.buffered_drops += 1
            return False
        queue.append(payload)
        if dst not in self._discovering:
            self._discovering[dst] = 0
            self._attempt_discovery(dst)
        return True

    def receive(self) -> Optional[AppMessage]:
        """Pop the next delivered message, or None."""
        return self.inbox.pop(0) if self.inbox else None

    def has_route(self, dst: int) -> bool:
        """Whether a fresh route to ``dst`` exists right now."""
        return self._fresh_route(dst) is not None

    # ==================================================================
    # Discovery
    # ==================================================================
    def _attempt_discovery(self, dst: int) -> None:
        if self._fresh_route(dst) is not None:
            self._flush_pending(dst)
            return
        attempts = self._discovering.get(dst, 0)
        if attempts >= self.MAX_DISCOVERY_ATTEMPTS:
            self.stats.discovery_failures += 1
            dropped = self._pending.pop(dst, [])
            self.stats.buffered_drops += len(dropped)
            self._discovering.pop(dst, None)
            return
        self._discovering[dst] = attempts + 1
        self._rreq_id = (self._rreq_id + 1) % 0x10000
        self._remember_rreq((self.address, self._rreq_id))
        self.stats.rreqs_originated += 1
        body = _RREQ.pack(self.address, self._rreq_id, dst, 0, DEFAULT_RREQ_TTL)
        self.pump.submit(
            encode_frame(BROADCAST_ADDRESS, self.address, TYPE_RREQ, self.address, body)
        )
        self.sim.schedule(
            self.DISCOVERY_WAIT_S,
            lambda: self._attempt_discovery(dst),
            label=f"aodv{self.address:04x} rediscover",
        )

    # ==================================================================
    # RX path
    # ==================================================================
    def _on_frame(self, rx: ReceivedFrame) -> None:
        if not rx.crc_ok:
            return
        try:
            frame = decode_frame(rx.payload)
        except ValueError:
            return
        if frame.type == TYPE_RREQ:
            self._handle_rreq(frame)
        elif frame.type == TYPE_RREP:
            self._handle_rrep(frame)
        else:
            self._handle_data(frame)

    def _handle_rreq(self, frame: AodvFrame) -> None:
        try:
            origin, rreq_id, target, hops, ttl = _RREQ.unpack(frame.body)
        except struct.error:
            return
        key = (origin, rreq_id)
        if key in self._seen_rreqs or origin == self.address:
            return
        self._remember_rreq(key)
        # Reverse route towards the origin, via whoever transmitted this copy.
        self._learn_route(origin, frame.sender, hops + 1)
        if target == self.address:
            # We are the destination: answer along the reverse path.
            self.stats.rreps_sent += 1
            next_hop = self._fresh_route(origin).next_hop  # just learned
            body = struct.pack("<H", next_hop) + _RREP.pack(origin, self.address, 0)
            self.pump.submit(encode_frame(origin, self.address, TYPE_RREP, self.address, body))
            return
        if ttl <= 1:
            return
        self.stats.rreqs_relayed += 1
        body = _RREQ.pack(origin, rreq_id, target, hops + 1, ttl - 1)
        self.pump.submit(
            encode_frame(BROADCAST_ADDRESS, origin, TYPE_RREQ, self.address, body)
        )

    def _handle_rrep(self, frame: AodvFrame) -> None:
        hop, rest = self._split_hop(frame.body)
        if hop is None:
            return
        try:
            origin, target, hops = _RREP.unpack(rest)
        except struct.error:
            return
        # Any overhearer may learn the forward route to the target via
        # the RREP's transmitter (promiscuous learning, as in AODV).
        self._learn_route(target, frame.sender, hops + 1)
        if hop != self.address:
            return  # not our hop to process
        if origin == self.address:
            # Discovery complete: release buffered traffic.
            self._discovering.pop(target, None)
            self._flush_pending(target)
            return
        route = self._fresh_route(origin)
        if route is None:
            return  # reverse route expired; the origin will retry
        self.stats.rreps_forwarded += 1
        body = struct.pack("<H", route.next_hop) + _RREP.pack(origin, target, hops + 1)
        self.pump.submit(encode_frame(origin, frame.src, TYPE_RREP, self.address, body))

    def _handle_data(self, frame: AodvFrame) -> None:
        hop, payload = self._split_hop(frame.body)
        if hop is None or hop != self.address:
            return  # someone else's hop (overheard)
        if frame.dst == self.address:
            self.stats.data_delivered += 1
            message = AppMessage(
                src=frame.src, payload=payload, received_at=self.sim.now, reliable=False
            )
            self.inbox.append(message)
            if self.on_message is not None:
                self.on_message(message)
            # Data arriving refreshes the reverse route it rode in on.
            self._learn_route(frame.src, frame.sender, 0, refresh_only=True)
            return
        route = self._fresh_route(frame.dst)
        if route is None:
            return  # route expired mid-path: the packet dies here
        self.stats.data_forwarded += 1
        self._transmit_data(frame.dst, frame.src, route.next_hop, payload, refresh=True)

    # Per-hop addressing: real AODV unicasts each hop at the MAC layer;
    # our radio (like LoRa) has no MAC-level unicast, so every per-hop
    # frame carries its intended next hop as a 2-byte body prefix.
    def _transmit_data(
        self, dst: int, src: int, next_hop: int, payload: bytes, *, refresh: bool = False
    ) -> bool:
        body = struct.pack("<H", next_hop) + payload
        queued = self.pump.submit(encode_frame(dst, src, TYPE_DATA, self.address, body))
        if refresh:
            self._touch_route(dst)
        return queued

    @staticmethod
    def _split_hop(body: bytes):
        if len(body) < 2:
            return None, b""
        (hop,) = struct.unpack_from("<H", body)
        return hop, body[2:]

    # ==================================================================
    # Routes
    # ==================================================================
    def _learn_route(self, dst: int, next_hop: int, hops: int, *, refresh_only: bool = False) -> None:
        if dst in (self.address, BROADCAST_ADDRESS):
            return
        now = self.sim.now
        current = self.routes.get(dst)
        if refresh_only:
            if current is not None:
                current.expires_at = now + self.ROUTE_LIFETIME_S
            return
        if current is None or hops <= current.hops or current.expires_at <= now:
            self.routes[dst] = _Route(
                next_hop=next_hop, hops=hops, expires_at=now + self.ROUTE_LIFETIME_S
            )
        else:
            current.expires_at = max(current.expires_at, now + self.ROUTE_LIFETIME_S / 2)

    def _fresh_route(self, dst: int) -> Optional[_Route]:
        route = self.routes.get(dst)
        if route is None or route.expires_at <= self.sim.now:
            self.routes.pop(dst, None)
            return None
        return route

    def _touch_route(self, dst: int) -> None:
        route = self.routes.get(dst)
        if route is not None:
            route.expires_at = self.sim.now + self.ROUTE_LIFETIME_S

    def _flush_pending(self, dst: int) -> None:
        route = self._fresh_route(dst)
        if route is None:
            return
        for payload in self._pending.pop(dst, []):
            self._transmit_data(dst, self.address, route.next_hop, payload)

    def _remember_rreq(self, key: Tuple[int, int]) -> None:
        self._seen_rreqs.add(key)
        self._seen_order.append(key)
        if len(self._seen_order) > self.DEDUP_CAPACITY:
            self._seen_rreqs.discard(self._seen_order.pop(0))


class AodvNetwork(Network):
    """A deployment of AODV nodes on the config's radio and region."""

    def __init__(
        self,
        positions: Sequence[Position],
        *,
        config: Optional[MesherConfig] = None,
        seed: int = 0,
        pathloss: Optional[PathLossModel] = None,
    ) -> None:
        if not positions:
            raise ValueError("a network needs at least one node position")
        super().__init__(seed=seed, pathloss=pathloss)
        config = config or MesherConfig()
        for i, position in enumerate(positions):
            address = FIRST_ADDRESS + i
            node = AodvNode(
                self.sim, self.medium, address, position, config,
                self.rngs.stream(f"aodv.{address}"),
            )
            node.start()
            self._nodes[address] = node

    def total_control_frames(self) -> int:
        """RREQ + RREP traffic across the network."""
        return sum(
            n.stats.rreqs_originated + n.stats.rreqs_relayed
            + n.stats.rreps_sent + n.stats.rreps_forwarded
            for n in self._nodes.values()
        )
