"""The LoRaMesher node service.

:class:`MesherNode` is the reproduction of the library's main class: one
instance per node, owning the radio, the routing table, the send queue,
the hello service, and the reliable transport, and wiring them together:

* **RX path** — radio ``on_receive`` → CRC filter → decode → dispatch
  (ROUTING packets feed the table; via-packets are classified by the data
  plane into deliver / forward / overhear / no-route),
* **TX path** — a single pump drains the send queue: random backoff
  (listen-before-talk with CAD deferral), duty-cycle pacing against the
  regional budget, then one frame on the air; the radio's tx-done re-arms
  the pump,
* **Application API** — :meth:`send_datagram`, :meth:`broadcast`,
  :meth:`send_reliable`, and an inbox of :class:`AppMessage` records with
  an optional ``on_message`` callback.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.medium.channel import Medium
from repro.net import serialization
from repro.net.addresses import BROADCAST_ADDRESS, format_address, validate_address
from repro.net.config import MesherConfig
from repro.net.forwarding import ForwardAction, classify, initial_via
from repro.net.hello import HelloService
from repro.net.packets import (
    AckPacket,
    DataPacket,
    LostPacket,
    NeedAckPacket,
    Packet,
    RoutingPacket,
    SyncPacket,
    XLDataPacket,
)
from repro.net.queues import PacketQueue, SendQueue
from repro.net.reliable import CompletionFn, ReliableTransport
from repro.net.routing_table import RouteEntry, RoutingTable, make_routing_table
from repro.phy.airtime import time_on_air
from repro.phy.pathloss import Position
from repro.phy.regions import DutyCycleAccountant
from repro.radio.driver import Radio
from repro.radio.frames import ReceivedFrame
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.rng import RngRegistry
from repro.trace.events import EventKind, TraceRecorder

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AppMessage:
    """A message delivered to the application layer."""

    src: int
    payload: bytes
    received_at: float
    reliable: bool

    @property
    def text(self) -> str:
        """Payload decoded as UTF-8 (convenience for the examples)."""
        return self.payload.decode("utf-8", errors="replace")


@dataclass
class NodeStats:
    """Per-node protocol counters (the trace holds the event detail)."""

    frames_sent: int = 0
    bytes_sent: int = 0
    data_originated: int = 0
    data_delivered: int = 0
    data_forwarded: int = 0
    no_route_drops: int = 0
    overheard: int = 0
    crc_failures: int = 0
    decode_failures: int = 0
    duty_deferrals: int = 0
    cad_deferrals: int = 0
    strict_duty_drops: int = 0
    #: Frames dropped because their airtime exceeds the region's dwell
    #: limit (US915: 400 ms), which no amount of waiting can satisfy.
    dwell_drops: int = 0
    #: FORWARD decisions whose next hop was the frame's previous
    #: transmitter — transient two-node ping-pong during convergence.
    ping_pong_forwards: int = 0


class MesherNode:
    """One LoRa mesh node: radio + routing + transport + app API."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        address: int,
        position: Position,
        config: Optional[MesherConfig] = None,
        *,
        rngs: Optional[RngRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        name: str = "",
    ) -> None:
        validate_address(address)
        self.sim = sim
        self.address = address
        self.name = name or format_address(address)
        self.config = config or MesherConfig()
        self.trace = trace
        rngs = rngs or RngRegistry(0)
        self._rng = rngs.stream(f"mesher.{address:#06x}")
        # Scheduler labels built once: the pump re-arms on every frame.
        self._pump_label = f"{self.name} pump"
        self._duty_label = f"{self.name} duty wait"
        self._cad_label = f"{self.name} cad wait"

        self.radio = Radio(sim, medium, address, position, self.config.lora)
        self.radio.on_receive = self._on_frame
        self.radio.on_tx_done = self._on_tx_done

        self.table = make_routing_table(
            address,
            route_timeout=self.config.route_timeout_s,
            max_metric=self.config.max_metric,
            snr_tiebreak_db=self.config.link_quality_tiebreak_db,
            on_change=self._route_changed,
        )
        self.send_queue = SendQueue(self.config.send_queue_capacity)
        self.duty = DutyCycleAccountant(self.config.region)
        self.hello = HelloService(
            sim,
            address,
            self.table,
            self.config,
            enqueue=self.enqueue,
            rng=self._rng,
            trace=trace,
        )
        self.reliable = ReliableTransport(
            sim,
            address,
            self.config,
            enqueue=self.enqueue,
            route_via=self.table.next_hop,
            deliver=self._deliver_reliable,
            trace=trace,
        )
        self.inbox: PacketQueue[AppMessage] = PacketQueue(
            self.config.app_inbox_capacity, name=f"inbox {self.name}"
        )
        #: Optional push-style delivery; fires in addition to the inbox.
        self.on_message: Optional[Callable[[AppMessage], None]] = None

        # Observer hooks: read-only slots the invariant checker and other
        # observers attach to with repro.sim.taps.tap.  All default to
        # None and cost one attribute load when unused.  They survive
        # recover() because the recreated table's on_change still points
        # at _route_changed, which fans out to on_route_event.
        #: ``(packet, decision, previous_hop)`` after every via-packet
        #: classification (previous_hop is the simulator-side transmitter
        #: id, -1 when unknown).
        self.on_forward_decision: Optional[Callable[[Packet, object, int], None]] = None
        #: ``(kind, entry)`` mirrored from the routing table's change
        #: hook (kind in {"added", "updated", "removed"}).
        self.on_route_event: Optional[Callable[[str, RouteEntry], None]] = None
        #: ``(message)`` on every application-layer delivery, before the
        #: inbox push (fires even when the inbox would overflow).
        self.on_app_delivery: Optional[Callable[[AppMessage], None]] = None
        #: ``(src, payload) -> bool`` consume hook ahead of the reliable
        #: inbox path: a protocol layered on the reliable transport (the
        #: stream layer) returns True to claim the payload, and the
        #: message never reaches the application inbox.  Its return value
        #: matters, so it is a single slot, not a tap point.
        self.on_reliable_consume: Optional[Callable[[int, bytes], bool]] = None

        self.stats = NodeStats()
        self._pump_handle: Optional[EventHandle] = None
        self._cad_attempts = 0
        self._started = False

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def start(self) -> None:
        """Power up: enter continuous RX and start the hello service."""
        if self._started:
            return
        self._started = True
        if not self.radio.powered:
            self.radio.power_on()
        self.radio.start_receive()
        self.hello.start()

    def stop(self) -> None:
        """Graceful shutdown: stop timers, radio to sleep."""
        if not self._started:
            return
        self._started = False
        self.hello.stop()
        if self._pump_handle is not None:
            self._pump_handle.cancel()
            self._pump_handle = None
        if not self.radio.transmitting:
            self.radio.sleep()

    def fail(self) -> None:
        """Abrupt node death (for the robustness experiments): the radio
        disappears from the medium mid-run, timers stop."""
        self.hello.stop()
        if self._pump_handle is not None:
            self._pump_handle.cancel()
            self._pump_handle = None
        self._started = False
        if not self.radio.transmitting:
            self.radio.power_off()
        else:
            # Die right after the in-flight frame ends, like a power cut
            # would still emit the tail of the current symbol stream.
            self.sim.call_soon(self.radio.power_off, label=f"{self.name} power off")

    def recover(self) -> None:
        """Bring a failed node back (cold start: empty routing table)."""
        self.radio.power_on()
        self.table = make_routing_table(
            self.address,
            route_timeout=self.config.route_timeout_s,
            max_metric=self.config.max_metric,
            snr_tiebreak_db=self.config.link_quality_tiebreak_db,
            on_change=self._route_changed,
        )
        self.hello._table = self.table  # the service follows the new table
        self.reliable._route_via = self.table.next_hop
        self._started = False
        self.start()

    @property
    def started(self) -> bool:
        """Whether the node service is running."""
        return self._started

    # ==================================================================
    # Application API
    # ==================================================================
    def send_datagram(self, dst: int, payload: bytes) -> bool:
        """Send an unreliable datagram towards ``dst``.

        Returns False when there is no route or the send queue is full —
        the datagram is then dropped, exactly like the firmware.
        """
        validate_address(dst, allow_broadcast=True)
        if isinstance(payload, str):
            raise TypeError("payload must be bytes; encode() your string")
        via = initial_via(dst, self.address, self.table)
        if via is None:
            self.stats.no_route_drops += 1
            self._record(EventKind.DATA_NO_ROUTE, dst=dst, origin=True)
            return False
        packet = DataPacket(dst=dst, src=self.address, via=via, payload=payload)
        if not self.enqueue(packet):
            return False
        self.stats.data_originated += 1
        self._record(EventKind.DATA_ORIGINATED, dst=dst, bytes=len(payload))
        return True

    def broadcast(self, payload: bytes) -> bool:
        """Single-hop broadcast to every node in radio range."""
        return self.send_datagram(BROADCAST_ADDRESS, payload)

    def send_reliable(
        self, dst: int, payload: bytes, on_complete: Optional[CompletionFn] = None
    ) -> int:
        """Reliably deliver ``payload`` (any size) to ``dst``.

        Large payloads are fragmented and repaired transparently; the
        optional ``on_complete(success, detail)`` callback reports the
        outcome.  Returns the stream's sequence id.
        """
        validate_address(dst)
        if isinstance(payload, str):
            raise TypeError("payload must be bytes; encode() your string")
        self.stats.data_originated += 1
        self._record(EventKind.DATA_ORIGINATED, dst=dst, bytes=len(payload), reliable=True)
        return self.reliable.send(dst, payload, on_complete)

    def receive(self) -> Optional[AppMessage]:
        """Pop the next delivered application message, or None."""
        return self.inbox.pop()

    # ==================================================================
    # TX path
    # ==================================================================
    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet for transmission and kick the pump."""
        ok = self.send_queue.push(packet)
        if not ok:
            self._record(EventKind.QUEUE_DROP, packet=type(packet).__name__)
        self._kick_pump()
        return ok

    def _kick_pump(self) -> None:
        if (
            not self.send_queue
            or self.radio.transmitting
            or not self.radio.powered
            or (self._pump_handle is not None and self._pump_handle.active)
        ):
            return
        delay = self._backoff_delay()
        self._pump_handle = self.sim.schedule(
            delay, self._try_send, label=self._pump_label
        )

    def _backoff_delay(self) -> float:
        slots = self.config.backoff_slots
        if slots <= 0:
            return 0.0
        return self._rng.randint(0, slots) * self.config.backoff_slot_s

    def _try_send(self) -> None:
        self._pump_handle = None
        if self.radio.transmitting or not self.radio.powered:
            return
        packet = self.send_queue.peek()
        if packet is None:
            return
        frame = serialization.encode(packet)
        airtime = time_on_air(len(frame), self.config.lora)
        now = self.sim.now

        # Duty-cycle pacing.
        if not self.duty.can_transmit(now, airtime):
            if airtime > self.duty.region.max_dwell_time_s:
                # Never fits, whatever strict_duty_cycle says: drop it.
                self.send_queue.pop()
                self.stats.dwell_drops += 1
                self._record(EventKind.QUEUE_DROP, packet=type(packet).__name__, reason="dwell")
                self._kick_pump()
                return
            if self.config.strict_duty_cycle:
                self.send_queue.pop()
                self.stats.strict_duty_drops += 1
                self._record(EventKind.QUEUE_DROP, packet=type(packet).__name__, reason="duty")
                self._kick_pump()
                return
            self.stats.duty_deferrals += 1
            resume_at = self.duty.next_allowed_time(now, airtime)
            self._pump_handle = self.sim.schedule(
                max(resume_at - now, 0.0) + self._backoff_delay(),
                self._try_send,
                label=self._duty_label,
            )
            return

        # Listen before talk.
        if self.radio.channel_activity() and self._cad_attempts < self.config.max_cad_retries:
            self._cad_attempts += 1
            self.stats.cad_deferrals += 1
            self._pump_handle = self.sim.schedule(
                self._backoff_delay() + self.config.backoff_slot_s,
                self._try_send,
                label=self._cad_label,
            )
            return
        self._cad_attempts = 0

        self.send_queue.pop()
        self.duty.record(now, airtime)
        self.radio.transmit(frame)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += len(frame)
        trace = self.trace
        if trace is not None:
            if trace.enabled:
                trace.record(
                    now,
                    self.address,
                    EventKind.FRAME_SENT,
                    packet=type(packet).__name__,
                    bytes=len(frame),
                    airtime_ms=round(airtime * 1000, 3),
                )
            else:
                # Counter-only fast path, as in _on_frame.
                trace.record(now, self.address, EventKind.FRAME_SENT)

    def _on_tx_done(self) -> None:
        self._kick_pump()

    # ==================================================================
    # RX path
    # ==================================================================
    def _on_frame(self, frame: ReceivedFrame) -> None:
        if not self._started:
            return
        if not frame.crc_ok:
            self.stats.crc_failures += 1
            self._record(EventKind.FRAME_CRC_FAILED)
            return
        try:
            packet = serialization.decode(frame.payload)
        except serialization.DecodeError as exc:
            self.stats.decode_failures += 1
            self._record(EventKind.FRAME_DECODE_FAILED, error=str(exc))
            return
        trace = self.trace
        if trace is not None:
            if trace.enabled:
                trace.record(
                    self.sim.now,
                    self.address,
                    EventKind.FRAME_RECEIVED,
                    packet=type(packet).__name__,
                    src=packet.src,
                    rssi=round(frame.rssi_dbm, 1),
                )
            else:
                # Counter-only fast path: skip building the detail dict
                # the disabled recorder would throw away (this runs for
                # every received frame in trace-less benchmark runs).
                trace.record(self.sim.now, self.address, EventKind.FRAME_RECEIVED)
        if isinstance(packet, RoutingPacket):
            self._handle_routing(packet, frame)
            return
        self._handle_via_packet(packet, previous_hop=frame.sender_id)

    def _handle_routing(self, packet: RoutingPacket, frame: ReceivedFrame) -> None:
        trace = self.trace
        if trace is not None:
            if trace.enabled:
                trace.record(
                    self.sim.now,
                    self.address,
                    EventKind.HELLO_RECEIVED,
                    src=packet.src,
                    entries=len(packet.entries),
                )
            else:
                trace.record(self.sim.now, self.address, EventKind.HELLO_RECEIVED)
        self.table.process_hello(
            packet.src, packet.entries, self.sim.now, snr_db=frame.snr_db
        )

    def _handle_via_packet(self, packet, *, previous_hop: int = -1) -> None:
        decision = classify(packet, self.address, self.table, previous_hop=previous_hop)
        if self.on_forward_decision is not None:
            self.on_forward_decision(packet, decision, previous_hop)
        if decision.action is ForwardAction.DELIVER:
            self._deliver(packet)
        elif decision.action is ForwardAction.FORWARD:
            assert decision.outgoing is not None
            self.stats.data_forwarded += 1
            if decision.ping_pong:
                self.stats.ping_pong_forwards += 1
            trace = self.trace
            if trace is not None:
                if trace.enabled:
                    trace.record(
                        self.sim.now,
                        self.address,
                        EventKind.DATA_FORWARDED,
                        packet=type(packet).__name__,
                        src=packet.src,
                        dst=packet.dst,
                        next_hop=decision.next_hop,
                    )
                else:
                    trace.record(self.sim.now, self.address, EventKind.DATA_FORWARDED)
            self.enqueue(decision.outgoing)
        elif decision.action is ForwardAction.NO_ROUTE:
            self.stats.no_route_drops += 1
            self._record(EventKind.DATA_NO_ROUTE, src=packet.src, dst=packet.dst)
        else:  # OVERHEAR
            self.stats.overheard += 1

    def _deliver(self, packet) -> None:
        if isinstance(packet, DataPacket):
            self._deliver_app(
                AppMessage(
                    src=packet.src,
                    payload=packet.payload,
                    received_at=self.sim.now,
                    reliable=False,
                )
            )
        elif isinstance(packet, NeedAckPacket):
            self.reliable.handle_need_ack(packet)
        elif isinstance(packet, AckPacket):
            self.reliable.handle_ack(packet)
        elif isinstance(packet, LostPacket):
            self.reliable.handle_lost(packet)
        elif isinstance(packet, SyncPacket):
            self.reliable.handle_sync(packet)
        elif isinstance(packet, XLDataPacket):
            self.reliable.handle_xl_data(packet)
        else:  # pragma: no cover - the decoder produces no other types
            logger.warning("%s: unhandled packet %r", self.name, packet)

    def _deliver_reliable(self, src: int, payload: bytes) -> None:
        if self.on_reliable_consume is not None and self.on_reliable_consume(src, payload):
            return
        self._deliver_app(
            AppMessage(src=src, payload=payload, received_at=self.sim.now, reliable=True)
        )

    def _deliver_app(self, message: AppMessage) -> None:
        self.stats.data_delivered += 1
        self._record(
            EventKind.DATA_DELIVERED,
            src=message.src,
            bytes=len(message.payload),
            reliable=message.reliable,
        )
        if self.on_app_delivery is not None:
            self.on_app_delivery(message)
        self.inbox.push(message)
        if self.on_message is not None:
            self.on_message(message)

    # ==================================================================
    _ROUTE_EVENTS = {
        "added": EventKind.ROUTE_ADDED,
        "updated": EventKind.ROUTE_UPDATED,
        "removed": EventKind.ROUTE_REMOVED,
    }

    def _route_changed(self, kind: str, entry: RouteEntry) -> None:
        if self.on_route_event is not None:
            self.on_route_event(kind, entry)
        trace = self.trace
        if trace is None:
            return
        event = self._ROUTE_EVENTS[kind]
        if trace.enabled:
            trace.record(
                self.sim.now,
                self.address,
                event,
                dst=entry.address,
                via=entry.via,
                metric=entry.metric,
            )
        else:
            trace.record(self.sim.now, self.address, event)

    def _record(self, kind: EventKind, **detail) -> None:
        if self.trace is not None:
            self.trace.record(self.sim.now, self.address, kind, **detail)

    def __repr__(self) -> str:
        return f"MesherNode({self.name}, routes={self.table.size})"
