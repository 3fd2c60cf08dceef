"""Reliable transport: single ACKed packets and large-payload streams.

LoRaMesher offers two reliable primitives on top of the routed mesh:

* **NEED_ACK** — a single packet the receiver must acknowledge; the
  sender retransmits on timeout up to ``max_retries``.
* **Large-payload streams** — payloads bigger than one frame are split
  into ``fragment_size`` pieces.  The sender opens the stream with a
  SYNC (fragment count + total bytes), then emits XL_DATA fragments
  paced ``fragment_spacing_s`` apart.  The receiver reassembles; when its
  gap timer fires with fragments missing it sends a LOST naming the first
  missing index, and the sender retransmits exactly that fragment.  A
  final ACK closes the stream.

Everything here is a state machine over the shared kernel: no threads,
no blocking — the mesher feeds received control packets in and pulls
outgoing packets through the ``enqueue`` callable.
"""

from __future__ import annotations

import hashlib
import logging
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.config import MesherConfig
from repro.net.packets import (
    AckPacket,
    LostPacket,
    NeedAckPacket,
    SyncPacket,
    ViaPacket,
    XLDataPacket,
)
from repro.sim.kernel import EventHandle, Simulator
from repro.trace.events import EventKind, TraceRecorder

logger = logging.getLogger(__name__)

#: Completion callback: (success, detail-string).
CompletionFn = Callable[[bool, str], None]
#: Hands a packet to the mesher's send queue; returns False on overflow.
EnqueueFn = Callable[[ViaPacket], bool]
#: Resolves the current next hop towards an address (None = no route).
RouteFn = Callable[[int], Optional[int]]
#: Delivers an assembled payload to the application layer.
DeliverFn = Callable[[int, bytes], None]


def split_payload(payload: bytes, fragment_size: int) -> List[bytes]:
    """Split ``payload`` into fragments of at most ``fragment_size``."""
    if fragment_size <= 0:
        raise ValueError("fragment_size must be positive")
    if not payload:
        return [b""]
    return [payload[i : i + fragment_size] for i in range(0, len(payload), fragment_size)]


class RttEstimator:
    """Per-destination round-trip estimator (RFC 6298 style).

    ``observe`` feeds one clean ACK round-trip (Karn's rule: retransmitted
    attempts are never sampled — the ACK could match either copy); ``rto``
    is the classic ``SRTT + 4·RTTVAR``.  Clamping to the configured
    cold-start timeout happens at the call site so the estimator itself
    stays policy-free.
    """

    __slots__ = ("srtt", "rttvar", "samples")

    ALPHA = 0.125
    BETA = 0.25

    def __init__(self) -> None:
        self.srtt = 0.0
        self.rttvar = 0.0
        self.samples = 0

    def observe(self, sample_s: float) -> None:
        if sample_s < 0:
            return
        if self.samples == 0:
            self.srtt = sample_s
            self.rttvar = sample_s / 2.0
        else:
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(self.srtt - sample_s)
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * sample_s
        self.samples += 1

    def rto(self) -> float:
        return self.srtt + 4.0 * self.rttvar


@dataclass
class _OutboundSingle:
    """State of one in-flight NEED_ACK packet."""

    dst: int
    seq_id: int
    payload: bytes
    on_complete: Optional[CompletionFn]
    retries: int = 0
    #: Local failures (no route / TX queue full) since the send started;
    #: charged against ``max_local_defers``, never ``max_retries``.
    local_defers: int = 0
    #: Whether the most recent attempt actually reached the send queue.
    airborne: bool = False
    first_tx_at: Optional[float] = None
    retransmitted: bool = False
    timer: Optional[EventHandle] = None


@dataclass
class _OutboundStream:
    """Sender-side state of one large-payload stream."""

    dst: int
    seq_id: int
    fragments: List[bytes]
    total_bytes: int
    on_complete: Optional[CompletionFn]
    next_index: int = 0  # next fresh fragment to send
    retries: int = 0
    local_defers: int = 0
    pace_timer: Optional[EventHandle] = None
    ack_timer: Optional[EventHandle] = None
    retransmit_queue: List[int] = field(default_factory=list)

    @property
    def all_sent(self) -> bool:
        return self.next_index >= len(self.fragments) and not self.retransmit_queue


@dataclass
class _InboundStream:
    """Receiver-side state of one large-payload stream."""

    src: int
    seq_id: int
    total_fragments: int
    total_bytes: int
    fragments: Dict[int, bytes] = field(default_factory=dict)
    gap_timer: Optional[EventHandle] = None
    losts_sent: int = 0
    losts_since_progress: int = 0

    @property
    def complete(self) -> bool:
        return len(self.fragments) >= self.total_fragments

    def first_missing(self) -> Optional[int]:
        for index in range(self.total_fragments):
            if index not in self.fragments:
                return index
        return None

    def assemble(self) -> bytes:
        return b"".join(self.fragments[i] for i in range(self.total_fragments))


class ReliableTransport:
    """The per-node reliable-delivery engine."""

    #: How long a (src, seq_id) stays in the duplicate-suppression cache.
    DEDUP_WINDOW_S = 600.0
    #: Missing fragments reported per receiver gap timeout.
    MAX_LOSTS_PER_GAP = 4
    #: Times a receiver reopens a stream it gave up on when a re-sent SYNC
    #: shows the sender is still there (see handle_sync).
    MAX_REOPENS = 1
    #: Floor for the adaptive RTO: even a one-hop SF7 exchange with a
    #: tiny measured RTT must leave room for CSMA backoff and forwarding.
    MIN_RTO_S = 1.0
    #: Ceiling on the backoff exponent (2**32 of any base already dwarfs
    #: every cap; this just keeps the float arithmetic sane).
    MAX_BACKOFF_EXP = 32

    def __init__(
        self,
        sim: Simulator,
        address: int,
        config: MesherConfig,
        enqueue: EnqueueFn,
        route_via: RouteFn,
        deliver: DeliverFn,
        *,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self._sim = sim
        self._address = address
        self._config = config
        self._enqueue = enqueue
        self._route_via = route_via
        self._deliver = deliver
        self._trace = trace
        self._seq_counter = 0
        self._singles: Dict[int, _OutboundSingle] = {}  # seq_id -> state
        self._streams: Dict[int, _OutboundStream] = {}  # seq_id -> state
        self._inbound: Dict[Tuple[int, int], _InboundStream] = {}
        self._seen_singles: Dict[Tuple[int, int], float] = {}  # (src, seq) -> time
        #: Recently completed inbound streams: (src, seq) -> (time, total
        #: fragments).  Lets the receiver re-ACK duplicates after its ACK
        #: was lost instead of treating retransmissions as a new stream.
        self._completed_inbound: Dict[Tuple[int, int], Tuple[float, int]] = {}
        #: Inbound streams this receiver gave up on: (src, seq) -> (time of
        #: the last give-up, give-ups so far).
        self._abandoned_inbound: Dict[Tuple[int, int], Tuple[float, int]] = {}

        #: Observer hook (see repro.sim.taps): ``(src, seq_id, kind)`` on
        #: every reliable delivery to the application, with kind in
        #: {"single", "stream"}.  The invariant checker uses it to assert
        #: exactly-once delivery per (receiver, src, seq).
        self.on_deliver: Optional[Callable[[int, int, str], None]] = None

        #: Per-destination SRTT/RTTVAR estimators feeding the adaptive
        #: retransmit timer (config.adaptive_rto).
        self._rtt: Dict[int, RttEstimator] = {}

        # Counters
        self.streams_started = 0
        self.streams_completed = 0
        self.streams_failed = 0
        self.singles_sent = 0
        self.singles_completed = 0
        self.singles_failed = 0
        self.fragments_sent = 0
        self.retransmissions = 0
        self.local_defers = 0
        self.rtt_samples = 0
        self.losts_sent = 0
        self.acks_sent = 0
        self.duplicates_suppressed = 0

    # ==================================================================
    # Retransmit timer policy
    # ==================================================================
    def rto_s(self, dst: int) -> float:
        """Current base retransmit timeout towards ``dst`` (seconds)."""
        cfg = self._config
        if cfg.adaptive_rto:
            est = self._rtt.get(dst)
            if est is not None and est.samples:
                # Adaptive between the floor and the configured cold-start
                # timeout: measured paths retransmit sooner, never later.
                return min(max(est.rto(), self.MIN_RTO_S), cfg.ack_timeout_s)
        return cfg.ack_timeout_s

    def srtt_s(self, dst: int) -> Optional[float]:
        """Smoothed RTT towards ``dst``, or None before the first sample."""
        est = self._rtt.get(dst)
        return est.srtt if est is not None and est.samples else None

    def observe_rtt(self, dst: int, sample_s: float) -> None:
        """Feed one clean ACK round-trip into the per-destination estimator."""
        est = self._rtt.get(dst)
        if est is None:
            est = self._rtt[dst] = RttEstimator()
        est.observe(sample_s)
        self.rtt_samples += 1

    def _retry_timeout_s(self, dst: int, attempt: int, token: str) -> float:
        """Wait before the next retransmission check.

        ``attempt`` is the number of on-air retries already consumed:
        exponential in ``retry_backoff_base`` (capped), with deterministic
        hash-derived jitter.  With backoff base 1.0, zero jitter, and
        ``adaptive_rto=False`` this returns exactly ``ack_timeout_s`` —
        the historical fixed-interval schedule, bit for bit.
        """
        cfg = self._config
        timeout = self.rto_s(dst)
        if cfg.retry_backoff_base > 1.0 and attempt > 0:
            grown = timeout * cfg.retry_backoff_base ** min(attempt, self.MAX_BACKOFF_EXP)
            timeout = min(grown, max(cfg.retry_backoff_cap_s, timeout))
        if cfg.retry_jitter_fraction > 0.0:
            timeout *= 1.0 + cfg.retry_jitter_fraction * (2.0 * self._jitter_unit(token) - 1.0)
        return timeout

    def _defer_timeout_s(self, token: str) -> float:
        """Wait before re-checking a locally failed attempt.

        Local failures (no route, TX queue full) are not congestion
        signals, so they never back off — but recovery takes a hello
        cycle, so re-checks run on the configured (not adaptive) timeout,
        jittered to desynchronise route-recovery stampedes.
        """
        cfg = self._config
        timeout = cfg.ack_timeout_s
        if cfg.retry_jitter_fraction > 0.0:
            timeout *= 1.0 + cfg.retry_jitter_fraction * (2.0 * self._jitter_unit(token) - 1.0)
        return timeout

    def _jitter_unit(self, token: str) -> float:
        """Deterministic uniform [0, 1) from (node address, token).

        A hash draw rather than a shared RNG stream: the jitter of one
        retry can never shift any other subsystem's random sequence, so
        runs stay replayable and the disabled path stays untouched.
        """
        digest = hashlib.sha256(f"{self._address:#06x}|{token}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    # ==================================================================
    # Sending
    # ==================================================================
    def send(self, dst: int, payload: bytes, on_complete: Optional[CompletionFn] = None) -> int:
        """Reliably deliver ``payload`` to ``dst``; returns the seq_id.

        Payloads that fit one frame use the NEED_ACK path; larger ones
        open a fragment stream.  ``on_complete(success, detail)`` fires
        exactly once.
        """
        seq_id = self._next_seq()
        if len(payload) <= self._config.fragment_size:
            self._start_single(dst, seq_id, payload, on_complete)
        else:
            self._start_stream(dst, seq_id, payload, on_complete)
        return seq_id

    def _next_seq(self) -> int:
        # Skip ids still in flight so a slow stream is never aliased.
        for _ in range(256):
            seq = self._seq_counter
            self._seq_counter = (self._seq_counter + 1) % 256
            if seq not in self._singles and seq not in self._streams:
                return seq
        raise RuntimeError("all 256 reliable sequence ids are in flight")

    # ------------------------------------------------------------------
    # NEED_ACK path
    # ------------------------------------------------------------------
    def _start_single(
        self, dst: int, seq_id: int, payload: bytes, on_complete: Optional[CompletionFn]
    ) -> None:
        state = _OutboundSingle(dst=dst, seq_id=seq_id, payload=payload, on_complete=on_complete)
        self._singles[seq_id] = state
        self.singles_sent += 1
        self._transmit_single(state)

    def _transmit_single(self, state: _OutboundSingle) -> None:
        via = self._route_via(state.dst)
        if via is None or not self._enqueue(
            NeedAckPacket(
                dst=state.dst,
                src=self._address,
                via=via if via is not None else 0xFFFF,
                seq_id=state.seq_id,
                number=0,
                payload=state.payload,
            )
        ):
            # No route or queue full: the frame never aired.  Re-check on
            # the timer, but charge the local-defer budget, not the on-air
            # retry budget (see _single_timeout).
            state.airborne = False
            self._arm_single_timer(state)
            return
        state.airborne = True
        if state.first_tx_at is None:
            state.first_tx_at = self._sim.now
        self._arm_single_timer(state)

    def _arm_single_timer(self, state: _OutboundSingle) -> None:
        if state.timer is not None:
            state.timer.cancel()
        token = f"single|{state.seq_id}|{state.retries}|{state.local_defers}"
        if state.airborne:
            timeout = self._retry_timeout_s(state.dst, state.retries, token)
        else:
            timeout = self._defer_timeout_s(token)
        state.timer = self._sim.schedule(
            timeout,
            lambda: self._single_timeout(state),
            label=f"needack#{state.seq_id} timeout",
        )

    def _single_timeout(self, state: _OutboundSingle) -> None:
        if state.seq_id not in self._singles:
            return
        if state.airborne:
            state.retries += 1
            state.retransmitted = True
            if state.retries > self._config.max_retries:
                del self._singles[state.seq_id]
                self.singles_failed += 1
                self._record(EventKind.STREAM_FAILED, seq_id=state.seq_id, dst=state.dst, variant="single")
                self._complete(state.on_complete, False, "ack timeout")
                return
            self.retransmissions += 1
            self._record(
                EventKind.FRAGMENT_RETRANSMITTED, seq_id=state.seq_id, dst=state.dst, variant="single"
            )
        else:
            # The last attempt failed locally — nothing aired, so nothing
            # was lost on air.  Separate budget: a transient queue spike
            # must not burn max_retries without a single transmission.
            state.local_defers += 1
            self.local_defers += 1
            if state.local_defers > self._config.max_local_defers:
                del self._singles[state.seq_id]
                self.singles_failed += 1
                self._record(EventKind.STREAM_FAILED, seq_id=state.seq_id, dst=state.dst, variant="single")
                self._complete(state.on_complete, False, "no route")
                return
        self._transmit_single(state)

    # ------------------------------------------------------------------
    # Stream path
    # ------------------------------------------------------------------
    def _start_stream(
        self, dst: int, seq_id: int, payload: bytes, on_complete: Optional[CompletionFn]
    ) -> None:
        fragments = split_payload(payload, self._config.fragment_size)
        if len(fragments) > 0xFFFF:
            raise ValueError(
                f"payload needs {len(fragments)} fragments; the wire format caps at 65535"
            )
        state = _OutboundStream(
            dst=dst,
            seq_id=seq_id,
            fragments=fragments,
            total_bytes=len(payload),
            on_complete=on_complete,
        )
        self._streams[seq_id] = state
        self.streams_started += 1
        self._record(
            EventKind.STREAM_STARTED,
            seq_id=seq_id,
            dst=dst,
            fragments=len(fragments),
            bytes=len(payload),
        )
        self._send_sync(state)
        self._arm_pace_timer(state)

    def _send_sync(self, state: _OutboundStream) -> None:
        via = self._route_via(state.dst)
        if via is None:
            return  # the ack timer / pacing path will retry
        self._enqueue(
            SyncPacket(
                dst=state.dst,
                src=self._address,
                via=via,
                seq_id=state.seq_id,
                number=len(state.fragments),
                total_bytes=state.total_bytes,
            )
        )

    def _arm_pace_timer(self, state: _OutboundStream, delay_s: Optional[float] = None) -> None:
        if state.pace_timer is not None:
            state.pace_timer.cancel()
        state.pace_timer = self._sim.schedule(
            self._config.fragment_spacing_s if delay_s is None else delay_s,
            lambda: self._pace_tick(state),
            label=f"stream#{state.seq_id} pace",
        )

    def _pace_tick(self, state: _OutboundStream) -> None:
        if state.seq_id not in self._streams:
            return
        state.pace_timer = None
        index: Optional[int] = None
        if state.retransmit_queue:
            index = state.retransmit_queue.pop(0)
        elif state.next_index < len(state.fragments):
            index = state.next_index
            state.next_index += 1
        if index is not None:
            aired = self._send_fragment(state, index)
            if state.seq_id not in self._streams:
                return  # the local-defer budget ran out; stream failed
            if not aired:
                # Locally deferred: re-check on the defer cadence, not the
                # fragment pacing cadence — burning one defer per pace
                # tick would exhaust the budget in seconds.
                self._arm_pace_timer(
                    state,
                    delay_s=max(
                        self._config.fragment_spacing_s,
                        self._defer_timeout_s(
                            f"streamdefer|{state.seq_id}|{state.retries}|{state.local_defers}"
                        ),
                    ),
                )
                return
        if state.all_sent:
            self._arm_ack_timer(state)
        else:
            self._arm_pace_timer(state)

    def _send_fragment(self, state: _OutboundStream, index: int) -> bool:
        """Try to queue fragment ``index``; returns True if it aired."""
        via = self._route_via(state.dst)
        if via is None:
            # Route vanished mid-stream: re-queue and defer locally —
            # nothing aired, so the on-air retry budget is untouched.
            state.retransmit_queue.insert(0, index)
            self._register_stream_retry(state, "no route", local=True)
            return False
        if not self._enqueue(
            XLDataPacket(
                dst=state.dst,
                src=self._address,
                via=via,
                seq_id=state.seq_id,
                number=index,
                payload=state.fragments[index],
            )
        ):
            # TX queue full: the fragment was silently dropped before the
            # air.  Re-queue it instead of relying on the receiver's gap
            # chase to notice, and charge the local-defer budget.
            state.retransmit_queue.insert(0, index)
            self._register_stream_retry(state, "tx queue full", local=True)
            return False
        self.fragments_sent += 1
        self._record(EventKind.FRAGMENT_SENT, seq_id=state.seq_id, index=index, dst=state.dst)
        return True

    def _arm_ack_timer(self, state: _OutboundStream) -> None:
        if state.ack_timer is not None:
            state.ack_timer.cancel()
        state.ack_timer = self._sim.schedule(
            self._retry_timeout_s(
                state.dst,
                state.retries,
                f"stream|{state.seq_id}|{state.retries}|{state.local_defers}",
            ),
            lambda: self._stream_ack_timeout(state),
            label=f"stream#{state.seq_id} acktimer",
        )

    def _stream_ack_timeout(self, state: _OutboundStream) -> None:
        if state.seq_id not in self._streams:
            return
        state.ack_timer = None
        # Re-send the SYNC (it may never have arrived — without it the
        # receiver has no reassembly state at all) and nudge with the last
        # fragment; the receiver answers with LOST or ACK.
        self._send_sync(state)
        last = len(state.fragments) - 1
        if last not in state.retransmit_queue:
            state.retransmit_queue.append(last)
        self._register_stream_retry(state, "ack timeout")

    def _register_stream_retry(
        self, state: _OutboundStream, reason: str, *, local: bool = False
    ) -> None:
        if local:
            # The frame never aired (no route / TX queue full): charge the
            # local-defer budget — the on-air retry budget is reserved for
            # losses the receiver could have seen.  The caller (_pace_tick)
            # owns the re-check cadence.
            state.local_defers += 1
            self.local_defers += 1
            if state.local_defers > self._config.max_local_defers:
                self._fail_stream(state, reason)
            return
        else:
            state.retries += 1
            if state.retries > self._config.max_retries:
                self._fail_stream(state, reason)
                return
            self.retransmissions += 1
            self._record(
                EventKind.FRAGMENT_RETRANSMITTED, seq_id=state.seq_id, dst=state.dst, reason=reason
            )
        if state.pace_timer is None:
            self._arm_pace_timer(state)

    def _fail_stream(self, state: _OutboundStream, reason: str) -> None:
        self._cancel_stream_timers(state)
        del self._streams[state.seq_id]
        self.streams_failed += 1
        self._record(EventKind.STREAM_FAILED, seq_id=state.seq_id, dst=state.dst, reason=reason)
        self._complete(state.on_complete, False, reason)

    def _cancel_stream_timers(self, state: _OutboundStream) -> None:
        if state.pace_timer is not None:
            state.pace_timer.cancel()
            state.pace_timer = None
        if state.ack_timer is not None:
            state.ack_timer.cancel()
            state.ack_timer = None

    # ==================================================================
    # Receiving (called by the mesher for packets addressed to this node)
    # ==================================================================
    def handle_need_ack(self, packet: NeedAckPacket) -> None:
        """Deliver a reliable single packet and acknowledge it."""
        key = (packet.src, packet.seq_id)
        now = self._sim.now
        self._prune_dedup(now)
        duplicate = key in self._seen_singles
        self._seen_singles[key] = now
        self._send_ack(packet.src, packet.seq_id, number=0)
        if duplicate:
            self.duplicates_suppressed += 1
            return
        if self.on_deliver is not None:
            self.on_deliver(packet.src, packet.seq_id, "single")
        self._deliver(packet.src, packet.payload)

    def handle_sync(self, packet: SyncPacket) -> None:
        """Open (or refresh) an inbound stream."""
        key = (packet.src, packet.seq_id)
        self._prune_dedup(self._sim.now)
        completed = self._completed_inbound.get(key)
        if completed is not None:
            # The stream already finished but our ACK was lost: re-ACK.
            self._send_ack(packet.src, packet.seq_id, number=completed[1])
            return
        if key in self._inbound:
            return  # duplicate SYNC (retransmission); state already exists
        abandoned = self._abandoned_inbound.get(key)
        if abandoned is not None and abandoned[1] > self.MAX_REOPENS:
            # Reopening starts reassembly from nothing, and its LOSTs reset
            # the sender's give-up budget.  After an outage that is how a
            # stream recovers, but a stream given up on again makes no
            # progress: reopening it forever would keep both ends busy
            # forever.  Staying silent lets the sender's budget run out.
            return
        if packet.number == 0:
            # Zero-fragment stream: degenerate but well-formed; ACK at
            # once.  Record it as completed so a retransmitted SYNC (our
            # ACK was lost) is re-ACKed instead of delivered again —
            # without this the empty payload arrives once per SYNC retry.
            self._completed_inbound[key] = (self._sim.now, 0)
            self._send_ack(packet.src, packet.seq_id, number=0)
            if self.on_deliver is not None:
                self.on_deliver(packet.src, packet.seq_id, "stream")
            self._deliver(packet.src, b"")
            return
        if len(self._inbound) >= self._config.max_inbound_streams:
            logger.warning(
                "node %#06x: inbound stream table full, ignoring SYNC from %#06x",
                self._address,
                packet.src,
            )
            return
        stream = _InboundStream(
            src=packet.src,
            seq_id=packet.seq_id,
            total_fragments=packet.number,
            total_bytes=packet.total_bytes,
        )
        self._inbound[key] = stream
        self._arm_gap_timer(stream)

    def handle_xl_data(self, packet: XLDataPacket) -> None:
        """Store one fragment; complete or chase gaps as appropriate."""
        key = (packet.src, packet.seq_id)
        completed = self._completed_inbound.get(key)
        if completed is not None:
            # Late duplicate of a finished stream (our ACK was lost): the
            # right answer is another ACK, never a LOST — reporting a loss
            # here would livelock the sender into retransmitting forever.
            self._send_ack(packet.src, packet.seq_id, number=completed[1])
            return
        stream = self._inbound.get(key)
        if stream is None:
            # Fragment without SYNC (the SYNC frame was lost): store
            # nothing (the total is unknown), but wake the sender's repair
            # path — it re-sends the SYNC on its ack timeout.
            return
        if packet.number >= stream.total_fragments:
            logger.warning(
                "node %#06x: fragment index %d out of range for stream %s",
                self._address,
                packet.number,
                key,
            )
            return
        if packet.number not in stream.fragments:
            stream.fragments[packet.number] = packet.payload
            stream.losts_since_progress = 0
        if stream.complete:
            self._finish_inbound(stream)
        else:
            self._arm_gap_timer(stream)

    def handle_ack(self, packet: AckPacket) -> None:
        """Sender side: a single or stream was fully received."""
        single = self._singles.pop(packet.seq_id, None)
        if single is not None:
            if single.timer is not None:
                single.timer.cancel()
            if not single.retransmitted and single.first_tx_at is not None:
                # Karn's rule: only un-retransmitted exchanges yield an
                # unambiguous round-trip sample.
                self.observe_rtt(single.dst, self._sim.now - single.first_tx_at)
            self.singles_completed += 1
            self._complete(single.on_complete, True, "acked")
            return
        stream = self._streams.pop(packet.seq_id, None)
        if stream is not None:
            self._cancel_stream_timers(stream)
            self.streams_completed += 1
            self._record(
                EventKind.STREAM_COMPLETED,
                seq_id=stream.seq_id,
                dst=stream.dst,
                retries=stream.retries,
            )
            self._complete(stream.on_complete, True, "acked")

    def handle_lost(self, packet: LostPacket) -> None:
        """Sender side: the receiver is missing fragment ``number``."""
        stream = self._streams.get(packet.seq_id)
        if stream is None:
            return  # stale LOST for a finished/failed stream
        if packet.number >= len(stream.fragments):
            return
        # A LOST proves the receiver is alive and reassembling: the repair
        # conversation is making progress, so the give-up budget resets.
        stream.retries = 0
        if packet.number not in stream.retransmit_queue:
            stream.retransmit_queue.insert(0, packet.number)
        self.retransmissions += 1
        self._record(
            EventKind.FRAGMENT_RETRANSMITTED,
            seq_id=stream.seq_id,
            index=packet.number,
            reason="lost report",
        )
        if stream.ack_timer is not None:
            stream.ack_timer.cancel()
            stream.ack_timer = None
        if stream.pace_timer is None:
            self._arm_pace_timer(stream)

    # ------------------------------------------------------------------
    # Inbound helpers
    # ------------------------------------------------------------------
    def _finish_inbound(self, stream: _InboundStream) -> None:
        if stream.gap_timer is not None:
            stream.gap_timer.cancel()
            stream.gap_timer = None
        del self._inbound[(stream.src, stream.seq_id)]
        self._completed_inbound[(stream.src, stream.seq_id)] = (
            self._sim.now,
            stream.total_fragments,
        )
        payload = stream.assemble()
        if stream.total_bytes and len(payload) != stream.total_bytes:
            logger.warning(
                "node %#06x: stream %d from %#06x reassembled to %d B, SYNC said %d B",
                self._address,
                stream.seq_id,
                stream.src,
                len(payload),
                stream.total_bytes,
            )
        self._send_ack(stream.src, stream.seq_id, number=stream.total_fragments)
        if self.on_deliver is not None:
            self.on_deliver(stream.src, stream.seq_id, "stream")
        self._deliver(stream.src, payload)

    def _arm_gap_timer(self, stream: _InboundStream) -> None:
        if stream.gap_timer is not None:
            stream.gap_timer.cancel()
        stream.gap_timer = self._sim.schedule(
            self._config.gap_timeout_s,
            lambda: self._gap_timeout(stream),
            label=f"stream({stream.src:#06x},{stream.seq_id}) gap",
        )

    def _gap_timeout(self, stream: _InboundStream) -> None:
        key = (stream.src, stream.seq_id)
        if key not in self._inbound:
            return
        stream.gap_timer = None
        stream.losts_since_progress += 1
        if stream.losts_since_progress > self._config.max_retries:
            # Sender is gone; abandon reassembly.
            del self._inbound[key]
            give_ups = self._abandoned_inbound.get(key, (0.0, 0))[1] + 1
            self._abandoned_inbound[key] = (self._sim.now, give_ups)
            self._record(
                EventKind.STREAM_FAILED, seq_id=stream.seq_id, src=stream.src, reason="receiver gave up"
            )
            return
        # Chase up to a handful of gaps per timeout: one LOST per missing
        # fragment is cheap (11 B frames) and repairing serially at one
        # fragment per gap period would make lossy multi-hop streams crawl.
        reported = 0
        for index in range(stream.total_fragments):
            if index not in stream.fragments:
                self._send_lost(stream.src, stream.seq_id, number=index)
                reported += 1
                if reported >= self.MAX_LOSTS_PER_GAP:
                    break
        self._arm_gap_timer(stream)

    def _send_ack(self, dst: int, seq_id: int, *, number: int) -> None:
        via = self._route_via(dst)
        if via is None:
            return
        self._enqueue(
            AckPacket(dst=dst, src=self._address, via=via, seq_id=seq_id, number=number)
        )
        self.acks_sent += 1
        self._record(EventKind.ACK_SENT, seq_id=seq_id, dst=dst)

    def _send_lost(self, dst: int, seq_id: int, *, number: int) -> None:
        via = self._route_via(dst)
        if via is None:
            return
        self._enqueue(
            LostPacket(dst=dst, src=self._address, via=via, seq_id=seq_id, number=number)
        )
        self.losts_sent += 1
        self._record(EventKind.LOST_SENT, seq_id=seq_id, dst=dst, index=number)

    def _prune_dedup(self, now: float) -> None:
        horizon = now - self.DEDUP_WINDOW_S
        stale = [k for k, t in self._seen_singles.items() if t < horizon]
        for key in stale:
            del self._seen_singles[key]
        stale_streams = [
            k for k, (t, _n) in self._completed_inbound.items() if t < horizon
        ]
        for key in stale_streams:
            del self._completed_inbound[key]
        stale_abandoned = [
            k for k, (t, _n) in self._abandoned_inbound.items() if t < horizon
        ]
        for key in stale_abandoned:
            del self._abandoned_inbound[key]

    # ------------------------------------------------------------------
    @property
    def active_outbound(self) -> int:
        """In-flight outbound singles + streams (diagnostic)."""
        return len(self._singles) + len(self._streams)

    @property
    def active_inbound(self) -> int:
        """In-flight inbound reassemblies (diagnostic)."""
        return len(self._inbound)

    def _complete(self, callback: Optional[CompletionFn], ok: bool, detail: str) -> None:
        if callback is not None:
            callback(ok, detail)

    def _record(self, kind: EventKind, **detail) -> None:
        if self._trace is not None:
            self._trace.record(self._sim.now, self._address, kind, **detail)
