"""Tests for the MesherNode service (single nodes and small meshes)."""

import pytest

from repro.net.addresses import BROADCAST_ADDRESS
from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.net.mesher import AppMessage, MesherNode
from repro.phy.modulation import LoRaParams, SpreadingFactor
from repro.phy.regions import US915
from repro.radio.states import RadioState
from repro.topology.placement import line_positions
from repro.trace.events import EventKind

FAST = MesherConfig(hello_period_s=30.0, route_timeout_s=120.0, purge_period_s=15.0)


def two_node_net(**kwargs):
    return MeshNetwork.from_positions([(0.0, 0.0), (80.0, 0.0)], config=FAST, **kwargs)


class TestLifecycle:
    def test_start_enters_rx_and_beacons(self):
        net = two_node_net()
        node = net.nodes[0]
        assert node.started
        assert node.radio.state is RadioState.RX
        net.run(for_s=60.0)
        assert node.hello.hellos_sent >= 1

    def test_stop_halts_protocol(self):
        net = two_node_net()
        node = net.nodes[0]
        net.run(for_s=60.0)
        node.stop()
        count = node.stats.frames_sent
        net.run(for_s=300.0)
        assert node.stats.frames_sent == count
        assert not node.started

    def test_start_is_idempotent(self):
        net = two_node_net()
        node = net.nodes[0]
        node.start()
        node.start()
        assert node.started

    def test_invalid_address_rejected(self, sim, medium):
        with pytest.raises(ValueError):
            MesherNode(sim, medium, 0x0000, (0.0, 0.0))

    def test_fail_removes_node_from_air(self):
        net = two_node_net()
        a, b = net.nodes
        net.run_until_converged(timeout_s=600.0)
        b.fail()
        net.run(for_s=300.0)  # past route timeout
        assert not a.table.has_route(b.address)

    def test_recover_rejoins_mesh(self):
        net = two_node_net()
        a, b = net.nodes
        net.run_until_converged(timeout_s=600.0)
        b.fail()
        net.run(for_s=200.0)
        b.recover()
        net.run(for_s=200.0)
        assert a.table.has_route(b.address)
        assert b.table.has_route(a.address)


class TestNeighbourDiscovery:
    def test_two_nodes_learn_each_other(self):
        net = two_node_net()
        net.run(for_s=120.0)
        a, b = net.nodes
        assert a.table.metric(b.address) == 1
        assert b.table.metric(a.address) == 1

    def test_hello_records_snr(self):
        net = two_node_net()
        net.run(for_s=120.0)
        a, b = net.nodes
        assert a.table.get(b.address).received_snr_db is not None


class TestSendDatagram:
    def test_datagram_between_neighbours(self):
        net = two_node_net()
        net.run_until_converged(timeout_s=600.0)
        a, b = net.nodes
        assert a.send_datagram(b.address, b"ping")
        net.run(for_s=30.0)
        message = b.receive()
        assert message is not None
        assert message.payload == b"ping"
        assert message.src == a.address
        assert not message.reliable

    def test_send_without_route_refused(self):
        net = two_node_net()
        a, b = net.nodes  # no time to converge: tables are empty
        assert not a.send_datagram(b.address, b"too-early")
        assert a.stats.no_route_drops == 1

    def test_broadcast_reaches_neighbours_once(self):
        net = MeshNetwork.from_positions(line_positions(3, spacing_m=80.0), config=FAST)
        net.run_until_converged(timeout_s=600.0)
        a, b, c = net.nodes
        b.broadcast(b"to everyone")
        net.run(for_s=30.0)
        assert a.receive().payload == b"to everyone"
        assert c.receive().payload == b"to everyone"
        # Broadcasts are single-hop: nobody re-forwards, so exactly one copy.
        assert a.receive() is None
        assert c.receive() is None

    def test_string_payload_rejected(self):
        net = two_node_net()
        a, b = net.nodes
        with pytest.raises(TypeError):
            a.send_datagram(b.address, "not bytes")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            a.send_reliable(b.address, "not bytes")  # type: ignore[arg-type]

    def test_on_message_callback_fires(self):
        net = two_node_net()
        net.run_until_converged(timeout_s=600.0)
        a, b = net.nodes
        got = []
        b.on_message = got.append
        a.send_datagram(b.address, b"cb")
        net.run(for_s=30.0)
        assert len(got) == 1
        assert isinstance(got[0], AppMessage)

    def test_app_message_text_helper(self):
        m = AppMessage(src=1, payload="héllo".encode(), received_at=0.0, reliable=False)
        assert m.text == "héllo"


class TestMultiHop:
    def test_three_hop_delivery(self):
        net = MeshNetwork.from_positions(line_positions(4), config=FAST)
        net.run_until_converged(timeout_s=1200.0)
        a, d = net.nodes[0], net.nodes[-1]
        a.send_datagram(d.address, b"across")
        net.run(for_s=60.0)
        assert d.receive().payload == b"across"
        # The middle nodes actually forwarded.
        middle_forwards = sum(n.stats.data_forwarded for n in net.nodes[1:-1])
        assert middle_forwards == 2

    def test_forwarding_counts_in_trace(self):
        net = MeshNetwork.from_positions(line_positions(3), config=FAST)
        net.run_until_converged(timeout_s=1200.0)
        a, b, c = net.nodes
        a.send_datagram(c.address, b"x")
        net.run(for_s=60.0)
        assert net.trace.count(EventKind.DATA_FORWARDED) == 1
        assert net.trace.count(EventKind.DATA_DELIVERED) == 1

    def test_reliable_across_hops(self):
        net = MeshNetwork.from_positions(line_positions(3), config=FAST)
        net.run_until_converged(timeout_s=1200.0)
        a, _, c = net.nodes
        outcome = []
        a.send_reliable(c.address, b"important", lambda ok, why: outcome.append(ok))
        net.run(for_s=120.0)
        assert outcome == [True]
        assert c.receive().payload == b"important"


class TestTransmitPath:
    def test_duty_cycle_pacing_defers(self):
        config = FAST.replace(send_queue_capacity=512)
        net = MeshNetwork.from_positions([(0.0, 0.0), (80.0, 0.0)], config=config)
        net.run_until_converged(timeout_s=600.0)
        a, b = net.nodes
        for _ in range(400):
            a.send_datagram(b.address, bytes(180))
        net.run(for_s=3600.0)
        assert a.stats.duty_deferrals > 0
        assert a.duty.window_utilisation(net.sim.now) <= a.duty.region.duty_cycle * 1.001

    def test_strict_duty_cycle_drops_instead(self):
        config = FAST.replace(send_queue_capacity=512, strict_duty_cycle=True)
        net = MeshNetwork.from_positions([(0.0, 0.0), (80.0, 0.0)], config=config)
        net.run_until_converged(timeout_s=600.0)
        a, b = net.nodes
        for _ in range(400):
            a.send_datagram(b.address, bytes(180))
        net.run(for_s=3600.0)
        assert a.stats.strict_duty_drops > 0

    def test_queue_overflow_counted(self):
        config = FAST.replace(send_queue_capacity=4)
        net = MeshNetwork.from_positions([(0.0, 0.0), (80.0, 0.0)], config=config)
        net.run_until_converged(timeout_s=600.0)
        a, b = net.nodes
        results = [a.send_datagram(b.address, bytes(100)) for _ in range(20)]
        assert not all(results)
        assert a.send_queue.dropped > 0

    def test_crc_failures_counted_not_delivered(self):
        # Three nodes in range; two transmit simultaneously so the third
        # sees a collision -> CRC failure at the service layer.
        net = MeshNetwork.from_positions(
            [(0.0, 0.0), (100.0, 0.0), (50.0, 0.0)], config=FAST.replace(backoff_slots=0)
        )
        net.run_until_converged(timeout_s=600.0)
        a, b, c = net.nodes
        a.send_datagram(c.address, b"one")
        b.send_datagram(c.address, b"two")
        net.run(for_s=10.0)
        # At least one of the overlapping frames was corrupted for c.
        assert c.stats.crc_failures >= 1 or c.inbox.enqueued_total == 2


class TestDwellLimit:
    """US915 caps one frame's airtime at 400 ms.  A longer frame can
    never go out, so the pump drops it instead of waiting for a duty
    budget that would never admit it."""

    @staticmethod
    def us915_line(sf, **overrides):
        config = MesherConfig(lora=LoRaParams(spreading_factor=sf), region=US915, **overrides)
        return MeshNetwork.from_positions(line_positions(3), config=config, seed=1)

    def test_over_dwell_datagram_is_dropped_and_pumping_continues(self):
        net = self.us915_line(SpreadingFactor.SF10)
        assert net.run_until_converged(timeout_s=1200.0) == 110.0
        a, _, c = net.nodes
        assert a.send_datagram(c.address, bytes(120))  # 1.231 s of airtime
        assert a.send_datagram(c.address, b"fits")
        net.run(for_s=60.0)
        assert a.stats.dwell_drops == 1
        assert a.stats.strict_duty_drops == 0
        drop = net.trace.first(EventKind.QUEUE_DROP, reason="dwell")
        assert drop is not None and drop.node == a.address
        assert drop.detail["packet"] == "DataPacket"
        # The frame behind it still went out and arrived.
        assert c.receive().payload == b"fits"
        assert c.receive() is None

    def test_dwell_drop_ignores_strict_duty_cycle(self):
        net = self.us915_line(SpreadingFactor.SF10, strict_duty_cycle=True)
        assert net.run_until_converged(timeout_s=1200.0) is not None
        a, _, c = net.nodes
        a.send_datagram(c.address, bytes(120))
        net.run(for_s=60.0)
        assert a.stats.dwell_drops == 1
        assert a.stats.strict_duty_drops == 0

    def test_sf12_hellos_never_fit_and_the_run_survives(self):
        net = self.us915_line(SpreadingFactor.SF12)
        net.run(for_s=600.0)  # every hello is 0.991 s on air
        assert net.total_frames_sent() == 0
        for node in net.nodes:
            assert 0 < node.stats.dwell_drops <= node.hello.hellos_sent
