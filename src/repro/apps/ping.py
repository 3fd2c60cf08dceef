"""Mesh ping: end-to-end reachability and RTT measurement.

The diagnostic every network library grows: an echo responder on every
node and a pinger that sends ``ECHO_REQ`` datagrams, matches ``ECHO_REP``
responses, and reports RTT statistics.  Runs purely on the public API;
the reply travels the reverse route, so a ping exercises both directions
of every link on the path.

Framing (application payloads):
``ECHO_REQ`` = ``b"PING" 0x01 ident:u16 seq:u16 sent_at:f64 [padding]``
``ECHO_REP`` = ``b"PING" 0x02 ident:u16 seq:u16 sent_at:f64`` (echoed)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.metrics.stats import SummaryStats, summary_stats
from repro.net.mesher import AppMessage, MesherNode
from repro.sim.kernel import EventHandle
from repro.sim.taps import tap

MAGIC = b"PING"
_KIND_REQ = 0x01
_KIND_REP = 0x02
_BODY = struct.Struct("<HHd")  # ident, seq, sent_at
MIN_SIZE = len(MAGIC) + 1 + _BODY.size


def encode_echo(kind: int, ident: int, seq: int, sent_at: float, *, size: int = MIN_SIZE) -> bytes:
    """Build an echo request/reply payload, padded to ``size``."""
    if size < MIN_SIZE:
        raise ValueError(f"echo payload must be >= {MIN_SIZE} B")
    head = MAGIC + bytes([kind]) + _BODY.pack(ident, seq, sent_at)
    return head + bytes(size - len(head))


def decode_echo(payload: bytes):
    """Parse an echo payload -> (kind, ident, seq, sent_at) or None."""
    if len(payload) < MIN_SIZE or payload[: len(MAGIC)] != MAGIC:
        return None
    kind = payload[len(MAGIC)]
    if kind not in (_KIND_REQ, _KIND_REP):
        return None
    ident, seq, sent_at = _BODY.unpack_from(payload, len(MAGIC) + 1)
    return kind, ident, seq, sent_at


def install_responder(node: MesherNode) -> None:
    """Make ``node`` answer echo requests (a tap on ``on_message``)."""

    def hook(message: AppMessage) -> None:
        decoded = decode_echo(message.payload)
        if decoded is not None and decoded[0] == _KIND_REQ:
            _, ident, seq, sent_at = decoded
            node.send_datagram(
                message.src,
                encode_echo(_KIND_REP, ident, seq, sent_at, size=len(message.payload)),
            )

    tap(node, "on_message", hook)


@dataclass
class PingResult:
    """Outcome of one ping run."""

    target: int
    sent: int
    received: int
    rtts_s: List[float] = field(default_factory=list)

    @property
    def loss(self) -> float:
        """Fraction of requests that got no reply."""
        return 1.0 - (self.received / self.sent) if self.sent else 0.0

    @property
    def rtt_stats(self) -> Optional[SummaryStats]:
        """RTT summary, or None when nothing came back."""
        return summary_stats(self.rtts_s) if self.rtts_s else None

    def format(self) -> str:
        """The classic ping summary line."""
        line = (
            f"--- {self.target:04X} ping statistics ---\n"
            f"{self.sent} packets transmitted, {self.received} received, "
            f"{self.loss * 100:.0f}% packet loss"
        )
        if self.rtt_stats:
            s = self.rtt_stats
            line += (
                f"\nrtt min/avg/max = "
                f"{s.minimum * 1000:.0f}/{s.mean * 1000:.0f}/{s.maximum * 1000:.0f} ms"
            )
        return line


class Pinger:
    """Sends echo requests from one node and collects replies.

    The pinger owns an ident so several pingers can share a node; the
    target must run :func:`install_responder` (deploy it on every node
    with :func:`deploy_responders`).
    """

    _next_ident = 0

    def __init__(self, node: MesherNode, *, payload_size: int = 24) -> None:
        self.node = node
        self.payload_size = max(payload_size, MIN_SIZE)
        self.ident = Pinger._next_ident
        Pinger._next_ident = (Pinger._next_ident + 1) % 0x10000
        self._seq = 0
        self._outstanding: Dict[int, float] = {}
        self._results: Dict[int, PingResult] = {}
        tap(node, "on_message", self._on_message)

    def ping(self, target: int, *, count: int = 1, interval_s: float = 10.0) -> PingResult:
        """Schedule ``count`` echo requests; returns the live result
        object (populate by running the simulation)."""
        result = self._results.setdefault(
            target, PingResult(target=target, sent=0, received=0)
        )
        for i in range(count):
            self.node.sim.schedule(
                i * interval_s, lambda t=target: self._send_one(t), label="ping"
            )
        return result

    def _send_one(self, target: int) -> None:
        result = self._results[target]
        seq = self._seq
        self._seq += 1
        now = self.node.sim.now
        self._outstanding[seq] = now
        result.sent += 1
        self.node.send_datagram(
            target, encode_echo(_KIND_REQ, self.ident, seq, now, size=self.payload_size)
        )

    def _on_message(self, message: AppMessage) -> None:
        decoded = decode_echo(message.payload)
        if decoded is None or decoded[0] != _KIND_REP:
            return
        _, ident, seq, sent_at = decoded
        if ident != self.ident or seq not in self._outstanding:
            return
        del self._outstanding[seq]
        result = self._results.get(message.src)
        if result is None:
            return
        result.received += 1
        result.rtts_s.append(message.received_at - sent_at)


def deploy_responders(nodes) -> None:
    """Install the echo responder on every node."""
    for node in nodes:
        install_responder(node)
