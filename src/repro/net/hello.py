"""Periodic routing-table dissemination (the HELLO service).

Every node broadcasts its routing table every ``hello_period_s`` seconds
(with jitter, so neighbours do not synchronise and collide).  A table too
large for one frame is split across consecutive ROUTING packets — each is
self-contained (the merge rules are per-entry), so receivers need no
reassembly.

The service also owns the periodic route-expiry sweep, mirroring how the
firmware couples both timers in its routing task.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.net.config import MesherConfig
from repro.net.packets import MAX_ROUTING_ENTRIES, RoutingEntry, RoutingPacket
from repro.net.routing_table import RoutingTable
from repro.sim.kernel import PeriodicTimer, Simulator
from repro.trace.events import EventKind, TraceRecorder


#: Signature the service uses to hand packets to the send queue.
EnqueueFn = Callable[[RoutingPacket], bool]


class HelloService:
    """Builds and schedules ROUTING broadcasts for one node."""

    def __init__(
        self,
        sim: Simulator,
        address: int,
        table: RoutingTable,
        config: MesherConfig,
        enqueue: EnqueueFn,
        rng: random.Random,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self._sim = sim
        self._address = address
        self._table = table
        self._config = config
        self._enqueue = enqueue
        self._rng = rng
        self._trace = trace
        self._hello_timer: Optional[PeriodicTimer] = None
        self._purge_timer: Optional[PeriodicTimer] = None
        self.hellos_sent = 0
        self.hello_entries_sent = 0
        # Built ROUTING packets, reused beacon-to-beacon while the table's
        # advertised rows are unchanged (packets are frozen, so sharing
        # one object across transmissions is safe).
        self._packets_cache: Optional[List[RoutingPacket]] = None
        self._packets_version: int = -1

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the hello and purge timers.

        The first hello goes out after a random fraction of one period so
        that a cold-started network does not flood the channel with
        simultaneous beacons.
        """
        if self._hello_timer is not None:
            return
        period = self._config.hello_period_s
        first = self._rng.uniform(0.05 * period, period)
        self._hello_timer = PeriodicTimer(
            self._sim,
            period,
            self.send_hello,
            jitter=self._jitter,
            label=f"hello {self._address:#06x}",
        )
        self._hello_timer.start(first_delay=first)
        self._purge_timer = self._sim.periodic(
            self._config.purge_period_s,
            self._purge,
            label=f"purge {self._address:#06x}",
        )

    def stop(self) -> None:
        """Disarm both timers (node shutdown)."""
        if self._hello_timer is not None:
            self._hello_timer.cancel()
            self._hello_timer = None
        if self._purge_timer is not None:
            self._purge_timer.cancel()
            self._purge_timer = None

    @property
    def running(self) -> bool:
        """Whether the service is armed."""
        return self._hello_timer is not None

    # ------------------------------------------------------------------
    def send_hello(self) -> None:
        """Build ROUTING packet(s) from the current table and enqueue them.

        A stable table (same advertised rows as the previous beacon, per
        :attr:`RoutingTable.version`) reuses the previously built packets
        instead of re-snapshotting and re-chunking the table.
        """
        version = self._table.version
        packets = self._packets_cache
        if packets is None or version != self._packets_version:
            packets = self.build_packets(self._table.snapshot(self_role=self._config.role))
            self._packets_cache = packets
            self._packets_version = version
        for packet in packets:
            if self._enqueue(packet):
                self.hellos_sent += 1
                self.hello_entries_sent += len(packet.entries)
                if self._trace is not None:
                    self._trace.record(
                        self._sim.now,
                        self._address,
                        EventKind.HELLO_SENT,
                        entries=len(packet.entries),
                    )

    def build_packets(self, entries: List[RoutingEntry]) -> List[RoutingPacket]:
        """Split an entry list into maximally filled ROUTING packets."""
        packets = []
        for start in range(0, len(entries), MAX_ROUTING_ENTRIES):
            chunk = tuple(entries[start : start + MAX_ROUTING_ENTRIES])
            packets.append(RoutingPacket(src=self._address, entries=chunk))
        if not packets:  # empty table still advertises the node itself
            packets.append(RoutingPacket(src=self._address, entries=()))
        return packets

    def _jitter(self) -> float:
        spread = self._config.hello_jitter_fraction * self._config.hello_period_s
        if spread == 0:
            return 0.0
        return self._rng.uniform(-spread, spread)

    def _purge(self) -> None:
        # Route-removal trace events are emitted by the table's on_change
        # hook (wired by the mesher), so the sweep itself stays silent.
        self._table.purge(self._sim.now)
