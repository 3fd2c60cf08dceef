"""Tests for the hello (routing dissemination) service."""

import random

import pytest

from repro.net.config import MesherConfig
from repro.net.hello import HelloService
from repro.net.packets import MAX_ROUTING_ENTRIES, RoutingEntry, RoutingPacket
from repro.net.routing_table import RoutingTable

ME = 0x0001


@pytest.fixture
def setup(sim):
    table = RoutingTable(ME)
    sent = []
    config = MesherConfig(hello_period_s=100.0, hello_jitter_fraction=0.0)
    service = HelloService(
        sim, ME, table, config, enqueue=lambda p: sent.append(p) or True, rng=random.Random(1)
    )
    return table, sent, service, config


class TestScheduling:
    def test_first_hello_within_one_period(self, sim, setup):
        _, sent, service, config = setup
        service.start()
        sim.run(until=config.hello_period_s)
        assert len(sent) >= 1

    def test_steady_state_rate(self, sim, setup):
        _, sent, service, config = setup
        service.start()
        sim.run(until=1000.0)
        # ~10 periods: the first fires early, so 10 +/- 1.
        assert 9 <= len(sent) <= 11

    def test_stop_halts_hellos(self, sim, setup):
        _, sent, service, _ = setup
        service.start()
        sim.run(until=150.0)
        count = len(sent)
        service.stop()
        sim.run(until=2000.0)
        assert len(sent) == count
        assert not service.running

    def test_start_is_idempotent(self, sim, setup):
        _, sent, service, _ = setup
        service.start()
        service.start()
        sim.run(until=105.0)
        assert len(sent) <= 2  # not doubled

    def test_jitter_desynchronises(self, sim):
        # With jitter the inter-hello gaps vary.
        table = RoutingTable(ME)
        times = []
        config = MesherConfig(hello_period_s=100.0, hello_jitter_fraction=0.25)
        service = HelloService(
            sim, ME, table, config,
            enqueue=lambda p: times.append(sim.now) or True,
            rng=random.Random(3),
        )
        service.start()
        sim.run(until=2000.0)
        gaps = {round(b - a, 3) for a, b in zip(times, times[1:])}
        assert len(gaps) > 1


class TestPacketContents:
    def test_empty_table_still_advertises_self(self, sim, setup):
        table, sent, service, _ = setup
        service.send_hello()
        assert len(sent) == 1
        assert sent[0].entries[0].address == ME
        assert sent[0].entries[0].metric == 0

    def test_hello_carries_table_rows(self, sim, setup):
        table, sent, service, _ = setup
        table.heard_from(0x0002, now=0.0)
        service.send_hello()
        advertised = {e.address: e.metric for e in sent[0].entries}
        assert advertised == {ME: 0, 0x0002: 1}

    def test_large_table_split_across_packets(self, sim, setup):
        _, _, service, _ = setup
        entries = [RoutingEntry(address=i + 2, metric=1) for i in range(MAX_ROUTING_ENTRIES + 10)]
        packets = service.build_packets(entries)
        assert len(packets) == 2
        assert len(packets[0].entries) == MAX_ROUTING_ENTRIES
        assert sum(len(p.entries) for p in packets) == len(entries)

    def test_counters(self, sim, setup):
        table, _, service, _ = setup
        table.heard_from(0x0002, now=0.0)
        service.send_hello()
        assert service.hellos_sent == 1
        assert service.hello_entries_sent == 2


class TestPurge:
    def test_purge_timer_expires_routes(self, sim):
        table = RoutingTable(ME, route_timeout=150.0)
        config = MesherConfig(
            hello_period_s=100.0, route_timeout_s=150.0, purge_period_s=50.0
        )
        service = HelloService(
            sim, ME, table, config, enqueue=lambda p: True, rng=random.Random(1)
        )
        table.heard_from(0x0002, now=0.0)
        service.start()
        sim.run(until=250.0)
        assert not table.has_route(0x0002)


class TestPacketReuse:
    """Beacon packets are rebuilt only when the advertised rows change."""

    def test_stable_table_reuses_packet_objects(self, sim, setup):
        table, sent, service, config = setup
        table.heard_from(0x0002, 0.0)
        service.start()
        sim.run(until=config.hello_period_s * 3.5)
        assert len(sent) >= 3
        assert all(p is sent[0] for p in sent[1:])

    def test_table_change_rebuilds_packets(self, sim, setup):
        table, sent, service, config = setup
        table.heard_from(0x0002, 0.0)
        service.start()
        sim.run(until=config.hello_period_s * 1.5)
        first = sent[-1]
        table.heard_from(0x0003, sim.now)  # new route -> new advertisement
        sim.run(until=config.hello_period_s * 2.5)
        assert sent[-1] is not first
        assert {e.address for e in sent[-1].entries} == {ME, 0x0002, 0x0003}

    def test_timestamp_refresh_does_not_rebuild(self, sim, setup):
        table, sent, service, config = setup
        table.heard_from(0x0002, 0.0)
        service.start()
        sim.run(until=config.hello_period_s * 1.5)
        version = table.version
        table.heard_from(0x0002, sim.now)  # refresh only: same rows
        assert table.version == version
        sim.run(until=config.hello_period_s * 2.5)
        assert sent[-1] is sent[0]

    def test_version_bumps_on_add_update_remove(self, sim):
        table = RoutingTable(ME, route_timeout=10.0)
        v0 = table.version
        table.heard_from(0x0002, 0.0)
        assert table.version > v0
        v1 = table.version
        entries = (RoutingEntry(address=0x0003, metric=2, role=0),)
        table.process_hello(0x0002, entries, 1.0)
        assert table.version > v1
        v2 = table.version
        table.purge(now=100.0)
        assert table.size == 0
        assert table.version > v2

    def test_reused_packets_encode_identically(self, sim, setup):
        from repro.net import serialization

        table, sent, service, config = setup
        table.heard_from(0x0002, 0.0)
        service.start()
        sim.run(until=config.hello_period_s * 2.5)
        buffers = [serialization.encode(p) for p in sent]
        assert len(set(buffers)) == 1
        decoded = serialization.decode(buffers[0])
        assert {e.address for e in decoded.entries} == {ME, 0x0002}


class TestBeaconSharing:
    """Listeners merge the sender's own ROUTING packet, not a decoded copy."""

    def test_listeners_merge_the_entries_the_sender_built(self, monkeypatch):
        from repro.net import serialization
        from repro.net.api import MeshNetwork
        from repro.topology.placement import line_positions

        built = []  # pins every built packet, so entries ids stay unique
        merged = []
        build_packets = HelloService.build_packets
        process_hello = RoutingTable.process_hello

        def recording_build(service, entries):
            packets = build_packets(service, entries)
            built.extend(packets)
            return packets

        def recording_merge(table, src, entries, *args, **kwargs):
            merged.append(entries)
            return process_hello(table, src, entries, *args, **kwargs)

        # An equal beacon memoized by an earlier network in this process
        # would keep its object, so start from an empty decode memo.
        monkeypatch.setattr(serialization, "_DECODE_CACHE", {})
        monkeypatch.setattr(HelloService, "build_packets", recording_build)
        monkeypatch.setattr(RoutingTable, "process_hello", recording_merge)
        net = MeshNetwork.from_positions(line_positions(3, spacing_m=100.0), seed=1)
        net.run(until=600.0)
        assert merged
        built_entries = {id(packet.entries) for packet in built}
        assert all(id(entries) in built_entries for entries in merged)


class TestBeaconSharingUnderEviction:
    """The decode memo only has to hold the frames on the air: a frame is
    memoized when its sender encodes it and decoded by every listener when
    the frame completes.  With a cap far below the run's distinct frames,
    every listener still gets the sender's packet and the run's outcome
    is the one it has with the default cap."""

    def _run(self, monkeypatch, cap=None):
        from repro.net import serialization
        from repro.net.api import MeshNetwork
        from repro.phy.modulation import Bandwidth, LoRaParams
        from repro.phy.regions import UNRESTRICTED
        from repro.topology.placement import grid_positions
        from repro.workload.flows import FlowEngine, build_workload

        monkeypatch.setattr(serialization, "_DECODE_CACHE", {})
        if cap is not None:
            monkeypatch.setattr(serialization, "_DECODE_CACHE_MAX", cap)
        memoized = set()
        held = []
        decoded_types = set()
        memoize, real_decode = serialization._memoize_decode, serialization._decode

        def recording_memoize(buffer, packet):
            memoize(buffer, packet)
            memoized.add(buffer)
            held.append(len(serialization._DECODE_CACHE))

        def recording_decode(buffer):
            packet = real_decode(buffer)
            decoded_types.add(packet.type)
            return packet

        monkeypatch.setattr(serialization, "_memoize_decode", recording_memoize)
        monkeypatch.setattr(serialization, "_decode", recording_decode)
        config = MesherConfig(
            lora=LoRaParams(bandwidth=Bandwidth.BW500),
            region=UNRESTRICTED,
            hello_period_s=30.0,
            route_timeout_s=600.0,
            purge_period_s=60.0,
            stream_window=2,
        )
        positions = grid_positions(3, 3, spacing_m=60.0)
        net = MeshNetwork.from_positions(positions, config=config, seed=7)
        assert net.run_until_converged(timeout_s=1200.0) is not None
        engine = FlowEngine(net)
        engine.add_flows(
            build_workload(
                "mixed", net.addresses, 6, seed=7,
                messages=3, payload_bytes=24, window_s=120.0, interval_s=20.0,
            )
        )
        engine.start()
        net.run(for_s=900.0)
        routes = sorted(
            (node.address, entry.address, entry.via, entry.metric, entry.role)
            for node in net.nodes
            for entry in node.table
        )
        deliveries = [
            (flow_id, state.delivered, tuple(state.latencies_s))
            for flow_id, state in sorted(engine.flows.items())
        ]
        fingerprint = (net.total_frames_sent(), net.total_bytes_sent(), routes, deliveries)
        assert all(state.complete for state in engine.flows.values())
        return fingerprint, memoized, held, decoded_types

    # At a cap of 4, evicting the newest half instead of the oldest would
    # drop beacons still on the air.
    @pytest.mark.parametrize("cap", [4, 16])
    def test_capped_memo_still_shares_every_beacon(self, monkeypatch, cap):
        from repro.net.packets import PacketType

        reference, *_ = self._run(monkeypatch)
        monkeypatch.undo()
        fingerprint, memoized, held, decoded_types = self._run(monkeypatch, cap=cap)
        assert len(memoized) > cap  # the memo evicted during the run
        assert max(held) <= cap
        # Every frame is seeded at its sender's encode.  At 16 entries no
        # frame reaches the parser; at 4 a data frame is at times evicted
        # before all of its listeners heard it, but never a beacon.
        assert PacketType.ROUTING not in decoded_types
        if cap >= 16:
            assert not decoded_types
        assert fingerprint == reference
