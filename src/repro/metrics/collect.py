"""Flow-level measurement: matching probe deliveries to sends.

A :class:`FlowRecorder` is wired between traffic generators (which report
every send) and node inboxes (whose ``on_message`` hooks report every
delivery).  It computes per-flow and aggregate PDR, latency
distributions, and duplicate counts — the rows every benchmark prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.metrics.stats import SummaryStats, summary_stats
from repro.net.mesher import AppMessage
from repro.sim.taps import tap
from repro.workload.probes import is_probe, parse_probe

FlowKey = Tuple[int, int]  # (src, dst)


@dataclass
class _SentRecord:
    time: float
    size: int


@dataclass(frozen=True)
class FlowSummary:
    """Measured outcome of one (src, dst) flow."""

    src: int
    dst: int
    sent: int
    delivered: int
    duplicates: int
    pdr: float
    latency: Optional[SummaryStats]  # None when nothing was delivered


class FlowRecorder:
    """Collects send/delivery records for any number of flows."""

    def __init__(self) -> None:
        self._sent: Dict[FlowKey, Dict[int, _SentRecord]] = {}
        self._delivered: Dict[FlowKey, Set[int]] = {}
        self._latencies: Dict[FlowKey, List[float]] = {}
        self._duplicates: Dict[FlowKey, int] = {}
        self.non_probe_messages = 0

    # ------------------------------------------------------------------
    # Reporting interface
    # ------------------------------------------------------------------
    def sent(self, src: int, dst: int, seq: int, time: float, size: int) -> None:
        """Record one send (traffic generators call this)."""
        self._sent.setdefault((src, dst), {})[seq] = _SentRecord(time=time, size=size)

    def delivered(self, dst: int, message: AppMessage) -> None:
        """Record one delivery (wire this to the node's ``on_message``)."""
        if not is_probe(message.payload):
            self.non_probe_messages += 1
            return
        probe = parse_probe(message.payload)
        key = (probe.src, dst)
        seen = self._delivered.setdefault(key, set())
        if probe.seq in seen:
            self._duplicates[key] = self._duplicates.get(key, 0) + 1
            return
        seen.add(probe.seq)
        self._latencies.setdefault(key, []).append(message.received_at - probe.sent_at)

    def merge_from(self, other: "FlowRecorder") -> None:
        """Fold another recorder's records into this one.

        The sharded runner keeps one recorder per worker (sends recorded
        where the flow's source lives, deliveries where its destination
        lives) and merges them after the run.  Record sets from disjoint
        node populations never overlap, but the merge is written to be
        safe either way: sends unite per-flow seq maps, deliveries unite
        seq sets, and latencies/duplicate counts concatenate/add.
        """
        for key, sent in other._sent.items():
            self._sent.setdefault(key, {}).update(sent)
        for key, seen in other._delivered.items():
            self._delivered.setdefault(key, set()).update(seen)
        for key, latencies in other._latencies.items():
            self._latencies.setdefault(key, []).extend(latencies)
        for key, count in other._duplicates.items():
            self._duplicates[key] = self._duplicates.get(key, 0) + count
        self.non_probe_messages += other.non_probe_messages

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def flow(self, src: int, dst: int) -> FlowSummary:
        """Summary of one flow (zero-filled when nothing was sent)."""
        key = (src, dst)
        sent = len(self._sent.get(key, {}))
        delivered = len(self._delivered.get(key, set()))
        latencies = self._latencies.get(key, [])
        return FlowSummary(
            src=src,
            dst=dst,
            sent=sent,
            delivered=delivered,
            duplicates=self._duplicates.get(key, 0),
            pdr=(delivered / sent) if sent else 0.0,
            latency=summary_stats(latencies) if latencies else None,
        )

    def flows(self) -> List[FlowSummary]:
        """Summaries of every flow that sent at least one probe."""
        return [self.flow(src, dst) for (src, dst) in sorted(self._sent)]

    def total_sent(self) -> int:
        """Probes sent across all flows."""
        return sum(len(v) for v in self._sent.values())

    def total_delivered(self) -> int:
        """Unique probes delivered across all flows."""
        return sum(len(v) for v in self._delivered.values())

    def total_duplicates(self) -> int:
        """Duplicate deliveries across all flows."""
        return sum(self._duplicates.values())

    def aggregate_pdr(self) -> float:
        """Network-wide delivered/sent (0.0 when nothing was sent)."""
        sent = self.total_sent()
        return (self.total_delivered() / sent) if sent else 0.0

    def delivered_bytes(self) -> int:
        """Payload bytes of every uniquely delivered probe, across all
        flows (a send whose seq was never delivered contributes 0)."""
        total = 0
        for key, sent in self._sent.items():
            delivered = self._delivered.get(key)
            if not delivered:
                continue
            total += sum(rec.size for seq, rec in sent.items() if seq in delivered)
        return total

    def all_latencies(self) -> List[float]:
        """Every matched delivery latency, flattened."""
        return [lat for values in self._latencies.values() for lat in values]


def attach_recorder(recorder: FlowRecorder, node) -> None:
    """Tap a node's ``on_message`` hook so the recorder sees every
    delivery, alongside any callback the application installed."""
    tap(node, "on_message", partial(recorder.delivered, node.address))


@dataclass(frozen=True)
class OverheadSummary:
    """Network-level airtime/overhead accounting."""

    frames_sent: int
    bytes_sent: int
    airtime_s: float
    airtime_per_delivered_byte_ms: float
    duty_cycle_peak: float


def overhead_summary(nodes, recorder: Optional[FlowRecorder] = None, now: float = 0.0) -> OverheadSummary:
    """Aggregate transmit-cost metrics over a collection of nodes.

    ``airtime_per_delivered_byte_ms`` needs a recorder (it divides total
    airtime by delivered probe bytes); it is ``inf`` when nothing was
    delivered — a meaningful benchmark outcome, not an error.
    """
    frames = sum(n.radio.frames_sent for n in nodes)
    tx_bytes = sum(n.radio.bytes_sent for n in nodes)
    airtime = sum(n.radio.tx_airtime_s for n in nodes)
    delivered_bytes = recorder.delivered_bytes() if recorder is not None else 0
    per_byte = (airtime * 1000 / delivered_bytes) if delivered_bytes else float("inf")
    peak_duty = 0.0
    for node in nodes:
        duty = getattr(node, "duty", None)
        if duty is not None:
            peak_duty = max(peak_duty, duty.window_utilisation(now))
    return OverheadSummary(
        frames_sent=frames,
        bytes_sent=tx_bytes,
        airtime_s=airtime,
        airtime_per_delivered_byte_ms=per_byte,
        duty_cycle_peak=peak_duty,
    )
