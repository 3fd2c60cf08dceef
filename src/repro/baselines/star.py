"""LoRaWAN-style star baseline.

The architecture the paper contrasts against: end nodes speak only to a
central gateway, which relays unicasts to their destination in a single
downlink hop.  There is no forwarding by end nodes, so any node outside
the gateway's radio range is simply unreachable — the failure mode that
motivates the mesh.

The star reuses the mesh wire format (DATA packets with ``via`` set to
the gateway / the destination) so airtime comparisons are apples to
apples.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.medium.channel import Medium
from repro.net import serialization
from repro.net.addresses import BROADCAST_ADDRESS, validate_address
from repro.net.api import FIRST_ADDRESS, Network
from repro.net.config import MesherConfig
from repro.net.mesher import AppMessage
from repro.net.packets import DataPacket
from repro.net.pump import TxPump, TxStats
from repro.net.queues import PacketQueue
from repro.phy.pathloss import PathLossModel, Position
from repro.radio.driver import Radio
from repro.radio.frames import ReceivedFrame
from repro.sim.kernel import Simulator


class _StarEndpoint:
    """Shared radio, pump and inbox of gateway and end nodes."""

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
    ) -> None:
        validate_address(address)
        self.sim = sim
        self.address = address
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
            name=f"star{address}",
            backoff=lambda: rng.uniform(0, self.BACKOFF_MAX_S),
        )
        self.duty = self.pump.duty
        self.inbox: List[AppMessage] = []
        self.on_message: Optional[Callable[[AppMessage], None]] = None
        self.delivered = 0

    def start(self) -> None:
        """Enter continuous receive."""
        self.radio.start_receive()

    def receive(self) -> Optional[AppMessage]:
        """Pop the next delivered message, or None."""
        return self.inbox.pop(0) if self.inbox else None

    # ------------------------------------------------------------------
    def _deliver(self, packet: DataPacket) -> None:
        self.delivered += 1
        message = AppMessage(
            src=packet.src, payload=packet.payload, received_at=self.sim.now, reliable=False
        )
        self.inbox.append(message)
        if self.on_message is not None:
            self.on_message(message)

    def _on_frame(self, rx: ReceivedFrame) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class StarGateway(_StarEndpoint):
    """The central gateway: receives uplinks, relays unicasts downlink."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.uplinks_received = 0
        self.downlinks_relayed = 0

    def _on_frame(self, rx: ReceivedFrame) -> None:
        if not rx.crc_ok:
            return
        try:
            packet = serialization.decode(rx.payload)
        except serialization.DecodeError:
            return
        if not isinstance(packet, DataPacket) or packet.via != self.address:
            return
        self.uplinks_received += 1
        if packet.dst in (self.address, BROADCAST_ADDRESS):
            self._deliver(packet)
            return
        # Relay: one downlink hop straight to the destination.
        downlink = DataPacket(
            dst=packet.dst, src=packet.src, via=packet.dst, payload=packet.payload
        )
        self.downlinks_relayed += 1
        self.pump.submit(serialization.encode(downlink))


class StarEndNode(_StarEndpoint):
    """An end node: transmits uplinks to the gateway, receives downlinks."""

    def __init__(self, *args, gateway_address: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gateway_address = gateway_address
        self.originated = 0

    def send(self, dst: int, payload: bytes) -> bool:
        """Send to ``dst`` through the gateway (LoRaWAN has no node-to-node
        path, so even neighbour traffic takes two hops); False when the
        outbox is full and drops it."""
        packet = DataPacket(dst=dst, src=self.address, via=self.gateway_address, payload=payload)
        self.originated += 1
        return self.pump.submit(serialization.encode(packet))

    def _on_frame(self, rx: ReceivedFrame) -> None:
        if not rx.crc_ok:
            return
        try:
            packet = serialization.decode(rx.payload)
        except serialization.DecodeError:
            return
        if not isinstance(packet, DataPacket):
            return
        if packet.via == self.address and packet.dst in (self.address, BROADCAST_ADDRESS):
            self._deliver(packet)


class StarNetwork(Network):
    """A gateway plus end nodes on the config's radio and region."""

    def __init__(
        self,
        positions: Sequence[Position],
        *,
        config: Optional[MesherConfig] = None,
        seed: int = 0,
        pathloss: Optional[PathLossModel] = None,
        gateway_index: int = 0,
    ) -> None:
        if len(positions) < 2:
            raise ValueError("a star needs a gateway and at least one end node")
        if not 0 <= gateway_index < len(positions):
            raise ValueError("gateway_index out of range")
        super().__init__(seed=seed, pathloss=pathloss)
        config = config or MesherConfig()
        gateway_address = FIRST_ADDRESS + gateway_index
        for i, position in enumerate(positions):
            address = FIRST_ADDRESS + i
            rng = self.rngs.stream(f"star.{address}")
            if i == gateway_index:
                node: _StarEndpoint = StarGateway(
                    self.sim, self.medium, address, position, config, rng
                )
            else:
                node = StarEndNode(
                    self.sim, self.medium, address, position, config, rng,
                    gateway_address=gateway_address,
                )
            node.start()
            self._nodes[address] = node
        self.gateway_address = gateway_address

    @property
    def gateway(self) -> StarGateway:
        """The gateway node."""
        node = self._nodes[self.gateway_address]
        assert isinstance(node, StarGateway)
        return node

    def end_nodes(self) -> List[StarEndNode]:
        """All end nodes."""
        return [n for n in self._nodes.values() if isinstance(n, StarEndNode)]
