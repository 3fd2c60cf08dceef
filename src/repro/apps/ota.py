"""Epidemic over-the-air update dissemination.

A Deluge-style distributed application built **only on the public mesh
API** — single-hop broadcasts, unicast datagrams, and reliable
transfers.  Each node runs the same three rules:

1. **Advertise.**  Periodically broadcast ``ADVERT(version, size)`` to
   radio neighbours (single-hop, cheap).
2. **Request.**  On hearing an advert for a newer version, send
   ``REQUEST(version)`` back to the advertiser — with a hold-off so a
   node doesn't beg multiple neighbours at once.
3. **Serve.**  On a request for the version we hold, push the blob to
   the requester with one reliable transfer.  Serve one requester at a
   time (tiny nodes, tiny queues); an advert goes out right after an
   install so the wave keeps moving.

The blob therefore hops outward neighbour-by-neighbour: total traffic is
one reliable transfer per *node*, each over exactly one hop — instead of
one multi-hop stream per node from the seed, which is what makes the
epidemic pattern cheaper than naive unicast (the E9 bench measures the
gap).

Wire framing (application payloads, invisible to the mesh):

``ADVERT``  = ``b"OTA1" 0x01 version:u32 size:u32``
``REQUEST`` = ``b"OTA1" 0x02 version:u32``
``BLOB``    = ``b"OTA1" 0x03 version:u32`` + firmware bytes (reliable)
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.net.mesher import AppMessage, MesherNode
from repro.sim.kernel import PeriodicTimer
from repro.sim.taps import tap


MAGIC = b"OTA1"
_KIND_ADVERT = 0x01
_KIND_REQUEST = 0x02
_KIND_BLOB = 0x03

_ADVERT = struct.Struct("<II")  # version, size
_REQUEST = struct.Struct("<I")  # version
_BLOB_HEADER = struct.Struct("<I")  # version


def encode_advert(version: int, size: int) -> bytes:
    """ADVERT payload bytes."""
    return MAGIC + bytes([_KIND_ADVERT]) + _ADVERT.pack(version, size)


def encode_request(version: int) -> bytes:
    """REQUEST payload bytes."""
    return MAGIC + bytes([_KIND_REQUEST]) + _REQUEST.pack(version)


def encode_blob(version: int, blob: bytes) -> bytes:
    """BLOB payload bytes (sent via the reliable transport)."""
    return MAGIC + bytes([_KIND_BLOB]) + _BLOB_HEADER.pack(version) + blob


@dataclass(frozen=True)
class OtaMessage:
    """A decoded OTA application message."""

    kind: int
    version: int
    size: int = 0
    blob: bytes = b""


def decode_ota(payload: bytes) -> Optional[OtaMessage]:
    """Parse an application payload; None when it is not OTA traffic."""
    if len(payload) < len(MAGIC) + 1 or payload[: len(MAGIC)] != MAGIC:
        return None
    kind = payload[len(MAGIC)]
    body = payload[len(MAGIC) + 1 :]
    try:
        if kind == _KIND_ADVERT:
            version, size = _ADVERT.unpack(body)
            return OtaMessage(kind=kind, version=version, size=size)
        if kind == _KIND_REQUEST:
            (version,) = _REQUEST.unpack(body)
            return OtaMessage(kind=kind, version=version)
        if kind == _KIND_BLOB:
            (version,) = _BLOB_HEADER.unpack_from(body)
            return OtaMessage(
                kind=kind, version=version, size=len(body) - _BLOB_HEADER.size,
                blob=body[_BLOB_HEADER.size :],
            )
    except struct.error:
        return None
    return None


@dataclass
class OtaStats:
    """Per-node application counters."""

    adverts_sent: int = 0
    adverts_heard: int = 0
    requests_sent: int = 0
    requests_served: int = 0
    transfers_started: int = 0
    transfers_completed: int = 0
    transfers_failed: int = 0
    installs: int = 0
    stale_blobs_ignored: int = 0


class OtaNode:
    """The OTA application instance running on one mesh node."""

    #: After requesting, wait this long before begging another neighbour.
    REQUEST_HOLDOFF_S = 90.0

    def __init__(
        self,
        node: MesherNode,
        *,
        advert_period_s: float = 120.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.node = node
        self.version = 0
        self.blob: bytes = b""
        self.stats = OtaStats()
        self._rng = rng or random.Random(node.address)
        self._requested_at: Optional[float] = None
        self._serving = False
        self._serve_queue: list[tuple[int, int]] = []  # (requester, version)

        tap(node, "on_message", self._on_message)

        spread = 0.25 * advert_period_s
        self._advert_timer = PeriodicTimer(
            node.sim,
            advert_period_s,
            self._send_advert,
            jitter=lambda: self._rng.uniform(-spread, spread),
            label=f"ota advert {node.name}",
        )
        self._advert_timer.start(first_delay=self._rng.uniform(1.0, advert_period_s))

    # ------------------------------------------------------------------
    def install(self, version: int, blob: bytes) -> None:
        """Install a firmware image locally (the seed calls this)."""
        if version <= self.version:
            return
        self.version = version
        self.blob = blob
        self.stats.installs += 1
        self._requested_at = None
        # Spread the news immediately: the epidemic wavefront.
        self._send_advert()

    def stop(self) -> None:
        """Stop advertising (node shutdown)."""
        self._advert_timer.cancel()

    @property
    def up_to_date_with(self) -> int:
        """The version this node currently holds."""
        return self.version

    # ------------------------------------------------------------------
    def _send_advert(self) -> None:
        if self.version == 0 or not self.node.started:
            return
        self.node.broadcast(encode_advert(self.version, len(self.blob)))
        self.stats.adverts_sent += 1

    def _on_message(self, message: AppMessage) -> None:
        ota = decode_ota(message.payload)
        if ota is None:
            return
        if ota.kind == _KIND_ADVERT:
            self._handle_advert(message.src, ota)
        elif ota.kind == _KIND_REQUEST:
            self._handle_request(message.src, ota)
        elif ota.kind == _KIND_BLOB:
            self._handle_blob(ota)

    def _handle_advert(self, src: int, ota: OtaMessage) -> None:
        self.stats.adverts_heard += 1
        if ota.version <= self.version:
            return
        now = self.node.sim.now
        if self._requested_at is not None and now - self._requested_at < self.REQUEST_HOLDOFF_S:
            return  # a transfer should already be coming
        if self.node.send_datagram(src, encode_request(ota.version)):
            self._requested_at = now
            self.stats.requests_sent += 1

    def _handle_request(self, src: int, ota: OtaMessage) -> None:
        if ota.version > self.version or self.version == 0:
            return  # we don't hold what they want
        self._serve_queue.append((src, self.version))
        self._pump_serve()

    def _pump_serve(self) -> None:
        if self._serving or not self._serve_queue:
            return
        requester, version = self._serve_queue.pop(0)
        if version != self.version:
            # We upgraded meanwhile; serve the current image instead.
            version = self.version
        self._serving = True
        self.stats.requests_served += 1
        self.stats.transfers_started += 1
        self.node.send_reliable(
            requester,
            encode_blob(version, self.blob),
            on_complete=self._transfer_done,
        )

    def _transfer_done(self, ok: bool, detail: str) -> None:
        self._serving = False
        if ok:
            self.stats.transfers_completed += 1
        else:
            self.stats.transfers_failed += 1
        self._pump_serve()

    def _handle_blob(self, ota: OtaMessage) -> None:
        if ota.version <= self.version:
            self.stats.stale_blobs_ignored += 1
            return
        self.install(ota.version, ota.blob)


def deploy_ota(
    nodes: Sequence[MesherNode],
    *,
    advert_period_s: float = 120.0,
    seed: int = 0,
) -> Dict[int, OtaNode]:
    """Run the OTA app on every node; returns {address: OtaNode}."""
    rng = random.Random(seed)
    return {
        node.address: OtaNode(
            node,
            advert_period_s=advert_period_s,
            rng=random.Random(rng.getrandbits(32)),
        )
        for node in nodes
    }


def dissemination_complete(apps: Dict[int, OtaNode], version: int) -> bool:
    """Whether every live node holds ``version``."""
    return all(
        app.version >= version for app in apps.values() if app.node.radio.powered
    )
