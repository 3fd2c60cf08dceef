"""Air capture: a promiscuous sniffer for the simulated channel.

Attach an :class:`AirCapture` to a medium and every completed
transmission is recorded — sender, decoded packet (when it parses as a
mesh packet), airtime, and the per-listener outcome (delivered, below
sensitivity, collided, ...).  This is the simulation analogue of parking
an SDR next to the testbed, and it is how you debug "why didn't node X
hear that?" questions without instrumenting protocol code.  Captures
tap the medium's ``on_transmission`` hook (:mod:`repro.sim.taps`), so
several of them can share one medium; they are that hook's only
consumer.

Captures export to JSON-lines for offline analysis, and
:meth:`repro.obs.store.EventStore.import_capture_jsonl` loads an export
into an event store as frame rows that keep the per-listener outcomes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.medium.channel import DropReason, Medium, Transmission
from repro.net import serialization
from repro.net.addresses import format_address
from repro.sim.taps import tap


@dataclass(frozen=True)
class CapturedFrame:
    """One transmission as seen by the sniffer."""

    index: int
    time: float
    sender: int
    size: int
    airtime_s: float
    packet_kind: str  # decoded mesh packet class name, or "raw"
    summary: str  # short human-readable description
    outcomes: Dict[int, DropReason]

    @property
    def delivered_to(self) -> List[int]:
        """Listeners that demodulated the frame cleanly."""
        return [n for n, r in self.outcomes.items() if r is DropReason.DELIVERED]

    @property
    def collided_at(self) -> List[int]:
        """Listeners whose copy was corrupted by interference."""
        return [n for n, r in self.outcomes.items() if r is DropReason.COLLISION]


class AirCapture:
    """Records every frame on a medium until :meth:`stop`."""

    def __init__(self, medium: Medium, *, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self.frames: List[CapturedFrame] = []
        self.total_seen = 0
        self._tap = tap(medium, "on_transmission", self._on_transmission)

    def stop(self) -> None:
        """Detach from the medium (captured frames remain)."""
        self._tap.remove()

    # ------------------------------------------------------------------
    def _on_transmission(self, tx: Transmission, outcomes: Dict[int, DropReason]) -> None:
        self.total_seen += 1
        if self.capacity is not None and len(self.frames) >= self.capacity:
            return
        kind, summary = _describe(tx.payload)
        self.frames.append(
            CapturedFrame(
                index=self.total_seen - 1,
                time=tx.start,
                sender=tx.sender_id,
                size=len(tx.payload),
                airtime_s=tx.airtime,
                packet_kind=kind,
                summary=summary,
                outcomes=dict(outcomes),
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def by_sender(self, sender: int) -> List[CapturedFrame]:
        """Frames transmitted by one node."""
        return [f for f in self.frames if f.sender == sender]

    def by_kind(self, kind: str) -> List[CapturedFrame]:
        """Frames of one decoded packet kind (e.g. 'RoutingPacket')."""
        return [f for f in self.frames if f.packet_kind == kind]

    def kind_counts(self) -> Dict[str, int]:
        """Histogram of packet kinds on the air."""
        counts: Dict[str, int] = {}
        for frame in self.frames:
            counts[frame.packet_kind] = counts.get(frame.packet_kind, 0) + 1
        return counts

    def airtime_by_kind(self) -> Dict[str, float]:
        """Total airtime per packet kind — the control/data split."""
        totals: Dict[str, float] = {}
        for frame in self.frames:
            totals[frame.packet_kind] = totals.get(frame.packet_kind, 0.0) + frame.airtime_s
        return totals

    def collision_count(self) -> int:
        """Frames corrupted for at least one listener."""
        return sum(1 for f in self.frames if f.collided_at)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_jsonl(self, path: Union[str, Path]) -> Path:
        """Write the capture as JSON-lines; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for frame in self.frames:
                handle.write(json.dumps(_frame_to_json(frame)) + "\n")
        return path

    def format(self, *, limit: int = 50) -> str:
        """tcpdump-style text rendering of the first ``limit`` frames."""
        lines = []
        for frame in self.frames[:limit]:
            delivered = ",".join(format_address(n) for n in frame.delivered_to) or "-"
            lines.append(
                f"{frame.time:10.3f}s {format_address(frame.sender)} "
                f"{frame.packet_kind:<14} {frame.size:3d}B -> {delivered}  {frame.summary}"
            )
        if len(self.frames) > limit:
            lines.append(f"... {len(self.frames) - limit} more frames")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.frames)


def _describe(payload: bytes) -> tuple[str, str]:
    """Best-effort decode of a frame for the capture log."""
    try:
        packet = serialization.decode(payload)
    except serialization.DecodeError:
        return "raw", f"{len(payload)} undecodable bytes"
    kind = type(packet).__name__
    dst = format_address(packet.dst)
    src = format_address(packet.src)
    if kind == "RoutingPacket":
        return kind, f"{src} advertises {len(packet.entries)} entries"
    via = format_address(packet.via)
    detail = f"{src}->{dst} via {via}"
    seq = getattr(packet, "seq_id", None)
    if seq is not None:
        detail += f" seq={seq} n={packet.number}"
    return kind, detail


def load_capture_jsonl(path: Union[str, Path]) -> List[CapturedFrame]:
    """Reload a capture written by :meth:`AirCapture.export_jsonl`.

    The reconstructed :class:`CapturedFrame` records compare equal to the
    originals (a loss-free round trip), which lets offline tooling work
    on exported captures with the same query helpers.
    """
    frames: List[CapturedFrame] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        frames.append(
            CapturedFrame(
                index=record["index"],
                time=record["time"],
                sender=record["sender"],
                size=record["size"],
                airtime_s=record["airtime_s"],
                packet_kind=record["kind"],
                summary=record["summary"],
                outcomes={
                    int(node): DropReason(reason)
                    for node, reason in record["outcomes"].items()
                },
            )
        )
    return frames


def _frame_to_json(frame: CapturedFrame) -> Dict[str, Any]:
    return {
        "index": frame.index,
        "time": frame.time,
        "sender": frame.sender,
        "size": frame.size,
        "airtime_s": frame.airtime_s,
        "kind": frame.packet_kind,
        "summary": frame.summary,
        "outcomes": {str(n): r.value for n, r in frame.outcomes.items()},
    }
