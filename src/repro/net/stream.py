"""Connection-oriented streams over the reliable transport.

The reliable layer (:mod:`repro.net.reliable`) moves one payload at a
time: NEED_ACK singles with pure ACKs, SYNC/XL_DATA fragment trains with
NACK-style LOST chasing.  This module adds the next rung — the
connection abstraction the Meshtastic bridge prototypes for the same
radio class: a :class:`Stream` with an explicit lifecycle
(SYN → OPEN → FIN), sliding-window flow control over in-flight reliable
messages, strictly in-order exactly-once delivery, and per-stream
SRTT/RTTVAR round-trip tracking.

Layering
--------
Every stream message is one reliable payload prefixed with a 6-byte
header (magic, type+direction, stream id, message seq).  The
:class:`StreamManager` claims those payloads through the mesher's
``on_reliable_consume`` hook before they reach the application inbox;
anything without the magic byte passes through untouched.  Because each
message rides the reliable layer, the *ACK/NACK selection is automatic*:
messages that fit one frame use the single-ACK path, larger ones the
LOST-driven selective-repeat path — the stream never re-implements
retransmission.

Retransmit timing is likewise owned by the transport: the per-stream
estimator here is fed by the very ACK round-trips that feed the
transport's per-destination estimator (``ReliableTransport.observe_rtt``)
driving the adaptive retransmit timer; the stream copy exists so flows
can be compared and exported individually.

Flow control is a sliding window: at most ``MesherConfig.stream_window``
reliable messages in flight per stream; further ``send()`` calls queue
and drain as transport completions arrive.  A transport-level failure
(retry budget exhausted) resets the stream — the stream layer never
retries what the transport already gave up on.

Both directions of a conversation are independent streams (one opened by
each side); a FIN therefore closes the whole stream, there is no
half-close state.
"""

from __future__ import annotations

import enum
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.net.reliable import RttEstimator


#: First payload byte that marks a stream-layer message.
STREAM_MAGIC = 0xD5
#: Header layout: magic, type (with direction bit), stream id, msg seq.
_HEADER = struct.Struct(">BBHH")
HEADER_SIZE = _HEADER.size

#: Set on every message sent by the stream's initiator; receivers use it
#: to pick the right namespace (ids are allocated per initiator, so an
#: accepted stream #7 and a locally opened stream #7 can coexist).
_FROM_INITIATOR = 0x80
_TYPE_MASK = 0x7F

MSG_SYN = 1
MSG_ACCEPT = 2
MSG_DATA = 3
MSG_FIN = 4
MSG_RESET = 5

_TYPE_NAMES = {
    MSG_SYN: "syn",
    MSG_ACCEPT: "accept",
    MSG_DATA: "data",
    MSG_FIN: "fin",
    MSG_RESET: "reset",
}


class StreamState(enum.Enum):
    """Lifecycle of one stream endpoint."""

    SYN_SENT = "syn_sent"  # initiator: SYN in flight, not yet accepted
    OPEN = "open"
    FIN_SENT = "fin_sent"  # FIN in flight after the send queue drained
    CLOSED = "closed"


@dataclass
class StreamStats:
    """Per-stream counters and round-trip tracking."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    duplicates_dropped: int = 0
    reordered_buffered: int = 0
    window_stalls: int = 0
    max_inflight: int = 0
    rtt: RttEstimator = field(default_factory=RttEstimator)
    rtt_max_s: float = 0.0

    def observe_rtt(self, sample_s: float) -> None:
        self.rtt.observe(sample_s)
        if sample_s > self.rtt_max_s:
            self.rtt_max_s = sample_s

    @property
    def srtt_s(self) -> Optional[float]:
        return self.rtt.srtt if self.rtt.samples else None


def encode_message(msg_type: int, stream_id: int, msg_seq: int, payload: bytes, *, from_initiator: bool) -> bytes:
    type_byte = msg_type | (_FROM_INITIATOR if from_initiator else 0)
    return _HEADER.pack(STREAM_MAGIC, type_byte, stream_id, msg_seq) + payload


def decode_message(payload: bytes) -> Optional[Tuple[int, int, int, bool, bytes]]:
    """``(type, stream_id, msg_seq, from_initiator, body)`` or None."""
    if len(payload) < HEADER_SIZE or payload[0] != STREAM_MAGIC:
        return None
    magic, type_byte, stream_id, msg_seq = _HEADER.unpack_from(payload)
    msg_type = type_byte & _TYPE_MASK
    if msg_type not in _TYPE_NAMES:
        return None
    return msg_type, stream_id, msg_seq, bool(type_byte & _FROM_INITIATOR), payload[HEADER_SIZE:]


class Stream:
    """One endpoint of a connection-oriented stream.

    Created by :meth:`StreamManager.open` (initiator side) or handed to
    the manager's ``on_accept`` callback (responder side).  ``send()``
    queues a message; the window pump keeps at most ``stream_window``
    reliable messages in flight.  ``close()`` flushes the queue, sends a
    FIN, and fires ``on_close`` once the FIN is acknowledged.
    """

    def __init__(
        self,
        manager: "StreamManager",
        peer: int,
        stream_id: int,
        *,
        initiator: bool,
    ) -> None:
        self._manager = manager
        self.peer = peer
        self.stream_id = stream_id
        self.initiator = initiator
        self.state = StreamState.SYN_SENT if initiator else StreamState.OPEN
        self.close_reason: Optional[str] = None
        self.stats = StreamStats()
        #: ``(stream, payload)`` per in-order delivered message.
        self.on_message: Optional[Callable[["Stream", bytes], None]] = None
        #: ``(stream)`` once the peer accepts (initiator side only).
        self.on_open: Optional[Callable[["Stream"], None]] = None
        #: ``(stream, reason)`` exactly once on close/reset/failure.
        self.on_close: Optional[Callable[["Stream", str], None]] = None

        self._send_queue: Deque[bytes] = deque()
        self._inflight: Dict[int, float] = {}  # msg_seq -> sent_at
        self._next_seq = 0
        self._expected_seq = 0
        self._reorder: Dict[int, bytes] = {}
        self._closing = False
        self._fin_sent = False
        self._opened_at = manager._sim.now
        self._syn_sent_at: Optional[float] = None

    # -- public API ----------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self.state in (StreamState.SYN_SENT, StreamState.OPEN)

    @property
    def pending(self) -> int:
        """Messages queued or in flight, not yet acknowledged."""
        return len(self._send_queue) + len(self._inflight)

    def send(self, payload: bytes) -> None:
        """Queue one message for in-order delivery to the peer."""
        if not self.is_open or self._closing:
            raise RuntimeError(f"stream to {self.peer:#06x} is {self.state.value}")
        if self._next_seq + len(self._send_queue) >= 0xFFFF:
            raise RuntimeError("stream message sequence space exhausted (65535)")
        self._send_queue.append(bytes(payload))
        self._pump()

    def close(self) -> None:
        """Flush queued messages, then FIN.  Idempotent."""
        if self.state is StreamState.CLOSED or self._closing:
            return
        self._closing = True
        self._pump()

    # -- internals -----------------------------------------------------
    def _pump(self) -> None:
        if self.state is not StreamState.OPEN:
            return  # SYN_SENT queues until ACCEPT; closed streams are inert
        window = self._manager.window
        while self._send_queue and len(self._inflight) < window:
            seq = self._next_seq
            self._next_seq += 1
            payload = self._send_queue.popleft()
            self._inflight[seq] = self._manager._sim.now
            self.stats.max_inflight = max(self.stats.max_inflight, len(self._inflight))
            self.stats.messages_sent += 1
            self.stats.bytes_sent += len(payload)
            self._manager._send_message(
                self, MSG_DATA, seq, payload,
                lambda ok, why, seq=seq: self._data_complete(seq, ok, why),
            )
        if self._send_queue and len(self._inflight) >= window:
            self.stats.window_stalls += 1
        if (
            self._closing
            and not self._fin_sent
            and not self._send_queue
            and not self._inflight
        ):
            self._fin_sent = True
            self.state = StreamState.FIN_SENT
            self._manager._send_message(
                self, MSG_FIN, self._next_seq, b"",
                lambda ok, why: self._fin_complete(ok, why),
            )

    def _data_complete(self, seq: int, ok: bool, why: str) -> None:
        sent_at = self._inflight.pop(seq, None)
        if self.state is StreamState.CLOSED:
            return
        if not ok:
            # The transport exhausted its retry budget: the path is gone,
            # re-sending from here would just repeat the same loss.
            self._manager._reset_stream(self, f"transport: {why}")
            return
        if sent_at is not None:
            self.stats.observe_rtt(self._manager._sim.now - sent_at)
        self._pump()

    def _fin_complete(self, ok: bool, why: str) -> None:
        if self.state is StreamState.CLOSED:
            return
        self._manager._close_stream(self, "fin" if ok else f"transport: {why}")

    def _receive_data(self, msg_seq: int, body: bytes) -> None:
        if msg_seq < self._expected_seq or msg_seq in self._reorder:
            # The transport already dedups per (src, seq_id); this guards
            # the stream's own contract and surfaces any future break.
            self.stats.duplicates_dropped += 1
            self._manager._tap("duplicate", self, msg_seq)
            return
        self._reorder[msg_seq] = body
        if msg_seq != self._expected_seq:
            self.stats.reordered_buffered += 1
        while self._expected_seq in self._reorder:
            payload = self._reorder.pop(self._expected_seq)
            seq = self._expected_seq
            self._expected_seq += 1
            self.stats.messages_received += 1
            self.stats.bytes_received += len(payload)
            self._manager._tap("deliver", self, seq)
            if self.on_message is not None:
                self.on_message(self, payload)


class StreamManager:
    """Per-node endpoint registry for connection-oriented streams.

    Attaches to one :class:`~repro.net.mesher.MesherNode` via its
    ``on_reliable_consume`` hook.  ``open()`` initiates streams;
    ``on_accept`` (callable, optional) observes inbound ones — returning
    ``False`` from it refuses the stream with a RESET.
    """

    def __init__(self, node, *, window: Optional[int] = None) -> None:
        if node.on_reliable_consume is not None:
            raise RuntimeError(f"{node.name} already has a reliable-consume hook")
        self._node = node
        self._sim = node.sim
        self.window = window if window is not None else node.config.stream_window
        if self.window < 1:
            raise ValueError("window must be >= 1")
        node.on_reliable_consume = self._consume
        #: Discovery handle for observers (the invariant checker finds
        #: managers through this attribute when it taps a node).
        node.stream_manager = self
        self._next_stream_id = 0
        #: Streams this node initiated, keyed (peer, stream_id).
        self._initiated: Dict[Tuple[int, int], Stream] = {}
        #: Streams this node accepted, keyed (peer, stream_id).
        self._accepted: Dict[Tuple[int, int], Stream] = {}
        #: ``(stream) -> bool | None`` on every inbound SYN; None accepts.
        self.on_accept: Optional[Callable[[Stream], Optional[bool]]] = None
        #: Observer hook (see repro.sim.taps): ``(kind, peer, stream_id,
        #: initiator_side, msg_seq)`` with kind in {"deliver",
        #: "duplicate", "open", "accept", "close", "reset"}.  ``deliver``
        #: fires per in-order app delivery — the STREAM_ORDERING invariant
        #: asserts its msg_seq is exactly-once and gapless per stream.
        self.on_stream_event: Optional[Callable[[str, int, int, bool, int], None]] = None

        # Counters
        self.streams_opened = 0
        self.streams_accepted = 0
        self.streams_closed = 0
        self.streams_reset = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.syn_refused = 0
        self.unclaimed_payloads = 0

    # -- opening -------------------------------------------------------
    def open(
        self,
        peer: int,
        *,
        on_message: Optional[Callable[[Stream, bytes], None]] = None,
        on_open: Optional[Callable[[Stream], None]] = None,
        on_close: Optional[Callable[[Stream, str], None]] = None,
    ) -> Stream:
        """Initiate a stream to ``peer``; returns it in SYN_SENT state."""
        stream_id = self._allocate_id(peer)
        stream = Stream(self, peer, stream_id, initiator=True)
        stream.on_message = on_message
        stream.on_open = on_open
        stream.on_close = on_close
        self._initiated[(peer, stream_id)] = stream
        self.streams_opened += 1
        stream._syn_sent_at = self._sim.now
        self._tap("open", stream, 0)
        self._send_message(
            stream, MSG_SYN, 0, b"",
            lambda ok, why, s=stream: self._syn_complete(s, ok, why),
        )
        return stream

    def _allocate_id(self, peer: int) -> int:
        for _ in range(0x10000):
            candidate = self._next_stream_id
            self._next_stream_id = (self._next_stream_id + 1) & 0xFFFF
            if (peer, candidate) not in self._initiated:
                return candidate
        raise RuntimeError("all 65536 stream ids to this peer are in use")

    def _syn_complete(self, stream: Stream, ok: bool, why: str) -> None:
        if stream.state is not StreamState.SYN_SENT:
            return  # ACCEPT already arrived, or the stream was reset
        if not ok:
            self._reset_stream(stream, f"syn failed: {why}")
        # On success we still wait for the peer's ACCEPT message: the
        # transport ACK only proves the SYN reached the peer's queue.

    # -- sending -------------------------------------------------------
    def _send_message(
        self,
        stream: Stream,
        msg_type: int,
        msg_seq: int,
        body: bytes,
        on_complete: Callable[[bool, str], None],
    ) -> None:
        payload = encode_message(
            msg_type, stream.stream_id, msg_seq, body, from_initiator=stream.initiator
        )
        if msg_type == MSG_DATA:
            self.messages_sent += 1
        self._node.reliable.send(stream.peer, payload, on_complete)

    # -- receiving -----------------------------------------------------
    def _consume(self, src: int, payload: bytes) -> bool:
        decoded = decode_message(payload)
        if decoded is None:
            self.unclaimed_payloads += 1
            return False
        msg_type, stream_id, msg_seq, from_initiator, body = decoded
        key = (src, stream_id)
        # A message from the stream's initiator lands in our accepted
        # namespace and vice versa.
        table = self._accepted if from_initiator else self._initiated
        if msg_type == MSG_SYN:
            self._handle_syn(src, stream_id, key)
            return True
        stream = table.get(key)
        if stream is None:
            if msg_type == MSG_DATA:
                # Stream unknown (reset locally, or a stale duplicate):
                # tell the sender to stop.
                self._send_control(src, stream_id, MSG_RESET, from_initiator=not from_initiator)
            return True
        if msg_type == MSG_ACCEPT:
            self._handle_accept(stream)
        elif msg_type == MSG_DATA:
            self.messages_received += 1
            stream._receive_data(msg_seq, body)
        elif msg_type == MSG_FIN:
            self._close_stream(stream, "fin")
        elif msg_type == MSG_RESET:
            self._reset_stream(stream, "peer reset", notify_peer=False)
        return True

    def _handle_syn(self, src: int, stream_id: int, key: Tuple[int, int]) -> None:
        existing = self._accepted.get(key)
        if existing is not None:
            # Duplicate SYN (the transport re-sent before our ACCEPT
            # landed): re-ACCEPT, the stream state already exists.
            self._send_control(src, stream_id, MSG_ACCEPT, from_initiator=False)
            return
        stream = Stream(self, src, stream_id, initiator=False)
        verdict = self.on_accept(stream) if self.on_accept is not None else None
        if verdict is False:
            self.syn_refused += 1
            self._send_control(src, stream_id, MSG_RESET, from_initiator=False)
            return
        self._accepted[key] = stream
        self.streams_accepted += 1
        self._tap("accept", stream, 0)
        self._send_control(src, stream_id, MSG_ACCEPT, from_initiator=False)

    def _handle_accept(self, stream: Stream) -> None:
        if stream.state is not StreamState.SYN_SENT:
            return  # duplicate ACCEPT
        stream.state = StreamState.OPEN
        if stream._syn_sent_at is not None:
            stream.stats.observe_rtt(self._sim.now - stream._syn_sent_at)
        if stream.on_open is not None:
            stream.on_open(stream)
        stream._pump()

    def _send_control(self, peer: int, stream_id: int, msg_type: int, *, from_initiator: bool) -> None:
        payload = encode_message(msg_type, stream_id, 0, b"", from_initiator=from_initiator)
        self._node.reliable.send(peer, payload, None)

    # -- teardown ------------------------------------------------------
    def _close_stream(self, stream: Stream, reason: str) -> None:
        if stream.state is StreamState.CLOSED:
            return
        stream.state = StreamState.CLOSED
        stream.close_reason = reason
        self._drop(stream)
        self.streams_closed += 1
        self._tap("close", stream, stream._expected_seq)
        if stream.on_close is not None:
            stream.on_close(stream, reason)

    def _reset_stream(self, stream: Stream, reason: str, *, notify_peer: bool = True) -> None:
        if stream.state is StreamState.CLOSED:
            return
        stream.state = StreamState.CLOSED
        stream.close_reason = reason
        self._drop(stream)
        self.streams_reset += 1
        self._tap("reset", stream, stream._expected_seq)
        if notify_peer:
            self._send_control(
                stream.peer, stream.stream_id, MSG_RESET, from_initiator=stream.initiator
            )
        if stream.on_close is not None:
            stream.on_close(stream, reason)

    def _drop(self, stream: Stream) -> None:
        table = self._initiated if stream.initiator else self._accepted
        table.pop((stream.peer, stream.stream_id), None)

    def _tap(self, kind: str, stream: Stream, msg_seq: int) -> None:
        if self.on_stream_event is not None:
            self.on_stream_event(kind, stream.peer, stream.stream_id, stream.initiator, msg_seq)

    # -- diagnostics ---------------------------------------------------
    @property
    def node(self):
        """The mesh node this manager is hooked onto."""
        return self._node

    @property
    def active_streams(self) -> int:
        return len(self._initiated) + len(self._accepted)

    def streams(self) -> List[Stream]:
        return list(self._initiated.values()) + list(self._accepted.values())

    def detach(self) -> None:
        """Release the node hook (streams become inert)."""
        # Bound methods are re-created per access, so compare the owner
        # rather than the method object identity.
        hook = self._node.on_reliable_consume
        if getattr(hook, "__self__", None) is self:
            self._node.on_reliable_consume = None
        if getattr(self._node, "stream_manager", None) is self:
            self._node.stream_manager = None
