"""Tests for the persistent event store and its live recorder."""

import json
import sqlite3

import pytest

from repro.medium.channel import DropReason
from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.instrument import instrument_network
from repro.obs.sampler import TimeSeriesSampler, load_timeseries_jsonl
from repro.obs.store import (
    KIND_FRAME,
    KIND_MARKER,
    KIND_ROUTE,
    KIND_SAMPLE,
    KIND_STREAM,
    EventStore,
    StoreRecorder,
    frame_view,
)
from repro.topology.placement import line_positions
from repro.trace.capture import AirCapture, load_capture_jsonl
from repro.trace.events import EventKind
from repro.verify import InvariantChecker

CONFIG = MesherConfig(hello_period_s=60.0, route_timeout_s=300.0, purge_period_s=30.0)
LINE4 = [(0.0, 0.0), (120.0, 0.0), (240.0, 0.0), (360.0, 0.0)]


def make_store(tmp_path, **kwargs):
    return EventStore(tmp_path / "run.db", **kwargs)


class TestEventStoreBasics:
    def test_wal_mode(self, tmp_path):
        store = make_store(tmp_path)
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        store.close()

    def test_append_flush_query(self, tmp_path):
        store = make_store(tmp_path, batch_size=4)
        for i in range(10):
            store.append(float(i), "test", {"i": i}, node=i % 2)
        # 8 committed (two batches), 2 still buffered — but writer reads
        # autoflush, so queries see all 10.
        events = store.events()
        assert len(events) == 10
        assert [e.id for e in events] == list(range(1, 11))
        assert events[3].data == {"i": 3}
        assert store.count() == 10
        store.close()

    def test_query_filters(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(20):
            store.append(float(i), "even" if i % 2 == 0 else "odd", {"i": i}, node=i % 4)
        assert store.count(kind="even") == 10
        assert len(store.events(node=1)) == 5
        # t0 <= t < t1 half-open range
        ranged = store.events(t0=5.0, t1=10.0)
        assert [e.data["i"] for e in ranged] == [5, 6, 7, 8, 9]
        # after_id is a strict cursor
        tail = store.events(after_id=18)
        assert [e.id for e in tail] == [19, 20]
        limited = store.events(limit=3)
        assert len(limited) == 3
        assert store.counts_by_kind() == {"even": 10, "odd": 10}
        assert store.last_id() == 20
        assert store.time_range() == (0.0, 19.0)
        store.close()

    def test_meta_and_nodes(self, tmp_path):
        store = make_store(tmp_path)
        store.set_meta("protocol", "mesh")
        store.set_meta("seed", 7)
        store.add_node(1, "alpha", 0.0, 0.0)
        store.add_node(2, "beta", 120.0, 0.0)
        meta = store.meta()
        assert meta["protocol"] == "mesh"
        assert meta["seed"] == 7
        assert meta["schema_version"] == 1
        assert [n["name"] for n in store.nodes()] == ["alpha", "beta"]
        store.close()

    def test_write_mode_truncates(self, tmp_path):
        store = make_store(tmp_path)
        store.append(0.0, "x", {})
        store.close()
        fresh = make_store(tmp_path, mode="w")
        assert fresh.count() == 0
        fresh.close()

    def test_append_mode_preserves(self, tmp_path):
        store = make_store(tmp_path)
        store.append(0.0, "x", {})
        store.close()
        again = make_store(tmp_path, mode="a")
        again.append(1.0, "y", {})
        assert again.count() == 2
        again.close()

    def test_read_only_rejects_writes(self, tmp_path):
        make_store(tmp_path).close()
        reader = make_store(tmp_path, mode="r")
        with pytest.raises(sqlite3.OperationalError):
            reader.append(0.0, "x", {})
        with pytest.raises(sqlite3.OperationalError):
            reader.set_meta("k", "v")
        reader.close()

    def test_read_missing_store_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EventStore(tmp_path / "absent.db", mode="r")

    def test_reader_sees_writer_commits_live(self, tmp_path):
        writer = make_store(tmp_path, batch_size=2)
        writer.append(0.0, "x", {"n": 1})
        writer.append(1.0, "x", {"n": 2})  # triggers a commit
        reader = make_store(tmp_path, mode="r")
        assert reader.count() == 2
        writer.append(2.0, "x", {"n": 3})
        writer.flush()
        assert reader.last_id() == 3  # WAL: reader sees new commits
        reader.close()
        writer.close()

    def test_context_manager(self, tmp_path):
        with make_store(tmp_path) as store:
            store.append(0.0, "x", {})
        assert EventStore(tmp_path / "run.db", mode="r").count() == 1


class TestDerivedViews:
    def test_route_state_folding(self, tmp_path):
        store = make_store(tmp_path)
        add = lambda t, node, dst, via, metric, event="added": store.append(
            t, KIND_ROUTE, {"event": event, "dst": dst, "via": via, "metric": metric}, node=node
        )
        add(10.0, 1, 2, 2, 1)
        add(20.0, 1, 3, 2, 2)
        add(30.0, 1, 3, 3, 1, event="updated")
        add(40.0, 1, 2, 2, 1, event="removed")
        mid = store.route_state_at(25.0)
        assert mid[1] == {2: {"via": 2, "metric": 1}, 3: {"via": 2, "metric": 2}}
        end = store.route_state_at()
        assert end[1] == {3: {"via": 3, "metric": 1}}
        store.close()

    def test_topology_links_are_direct_routes(self, tmp_path):
        store = make_store(tmp_path)
        store.add_node(1, "a", 0.0, 0.0)
        store.add_node(2, "b", 120.0, 0.0)
        store.append(5.0, KIND_ROUTE, {"event": "added", "dst": 2, "via": 2, "metric": 1}, node=1)
        store.append(5.0, KIND_ROUTE, {"event": "added", "dst": 1, "via": 1, "metric": 1}, node=2)
        store.append(6.0, KIND_ROUTE, {"event": "added", "dst": 3, "via": 2, "metric": 2}, node=1)
        topo = store.topology_at()
        assert topo["links"] == [[1, 2]]  # metric-2 route is not a link
        assert len(topo["nodes"]) == 2
        store.close()

    def test_health_summary_empty(self, tmp_path):
        store = make_store(tmp_path)
        assert store.health_summary() == {"t": None, "nodes": [], "coverage": None}
        store.close()


class TestJsonlBridges:
    def test_timeseries_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        store.append(10.0, KIND_SAMPLE, {"values": {"a": 1.0, "b": 2.5}})
        store.append(20.0, KIND_SAMPLE, {"values": {"a": 3.0}})
        out = store.export_timeseries_jsonl(tmp_path / "series.jsonl")
        points = load_timeseries_jsonl(out)
        assert [p.time_s for p in points] == [10.0, 20.0]
        assert points[0].values == {"a": 1.0, "b": 2.5}
        # And back in: import recreates the same sample events.
        store2 = EventStore(tmp_path / "copy.db")
        assert store2.import_timeseries_jsonl(out) == 2
        assert store2.events(kind=KIND_SAMPLE)[1].data == {"values": {"a": 3.0}}
        store2.close()
        store.close()

    def test_capture_round_trip_with_load_capture_jsonl(self, tmp_path):
        net = MeshNetwork.from_positions(LINE4, config=CONFIG, seed=3)
        store = EventStore(tmp_path / "run.db")
        recorder = StoreRecorder(store, net).attach()
        net.run(for_s=400.0)
        recorder.detach()
        out = store.export_capture_jsonl(tmp_path / "capture.jsonl")
        frames = load_capture_jsonl(out)
        assert len(frames) == store.count(kind=KIND_FRAME) > 0
        assert frames[0].index == 0
        assert [f.index for f in frames] == list(range(len(frames)))
        # Round-trip back into a fresh store.
        store2 = EventStore(tmp_path / "copy.db")
        assert store2.import_capture_jsonl(out) == len(frames)
        assert store2.events(kind=KIND_FRAME)[0].data["sender"] == frames[0].sender
        store2.close()
        store.close()


class TestStoreRecorder:
    def run_recorded(self, tmp_path, duration=600.0, **recorder_kwargs):
        net = MeshNetwork.from_positions(LINE4, config=CONFIG, seed=1)
        store = EventStore(tmp_path / "run.db")
        registry = MetricsRegistry()
        instrument_network(registry, net)
        sampler = TimeSeriesSampler(net.sim, registry, period_s=120.0)
        recorder = StoreRecorder(store, net, sampler=sampler, **recorder_kwargs).attach()
        net.run(for_s=duration)
        recorder.detach()
        return net, store, recorder

    def test_records_all_kinds(self, tmp_path):
        net, store, _ = self.run_recorded(tmp_path)
        counts = store.counts_by_kind()
        assert counts[KIND_FRAME] == net.total_frames_sent()
        assert counts[KIND_ROUTE] > 0
        assert counts[KIND_SAMPLE] == 5  # t=120..600
        assert counts[KIND_MARKER] == 2  # started + finished
        assert store.meta()["finished"] is True
        assert {n["address"] for n in store.nodes()} == set(net.addresses)
        store.close()

    def test_records_stream_events(self, tmp_path):
        """A StreamManager present at attach time (or watched later) has
        its lifecycle/delivery events recorded as KIND_STREAM rows."""
        from repro.net.stream import StreamManager

        net = MeshNetwork.from_positions(LINE4, config=CONFIG, seed=1)
        assert net.run_until_converged(timeout_s=1200.0) is not None
        a, b = net.nodes[0], net.nodes[1]
        manager_a = StreamManager(a)  # exists before attach: auto-tapped
        store = EventStore(tmp_path / "run.db")
        recorder = StoreRecorder(store, net).attach()
        manager_b = StreamManager(b)  # created after attach
        recorder.watch_stream_manager(manager_b)
        received = []
        manager_b.on_accept = lambda s: s.__setattr__(
            "on_message", lambda _s, body: received.append(body)
        )
        stream = manager_a.open(b.address)
        net.run(for_s=60.0)
        stream.send(b"payload-0")
        stream.send(b"payload-1")
        stream.close()
        net.run(for_s=300.0)
        recorder.detach()
        assert received == [b"payload-0", b"payload-1"]
        events = store.events(kind=KIND_STREAM)
        kinds = [e.data["event"] for e in events]
        assert "open" in kinds and "accept" in kinds
        assert kinds.count("deliver") == 2
        assert kinds.count("close") == 2  # both endpoints
        deliveries = [e for e in events if e.data["event"] == "deliver"]
        assert [e.data["seq"] for e in deliveries] == [0, 1]
        assert all(e.node == b.address for e in deliveries)
        store.close()

    def test_capture_import_adds_outcomes_to_recorded_frames(self, tmp_path):
        # The recorder's frame rows carry no per-listener outcomes; an
        # AirCapture export imported into a store gives the same frames
        # with the capture's outcomes.
        net = MeshNetwork.from_positions(LINE4, config=CONFIG, seed=8)
        capture = AirCapture(net.medium)
        recorded = EventStore(tmp_path / "run.db")
        recorder = StoreRecorder(recorded, net).attach()
        net.run(for_s=400.0)
        recorder.detach()
        capture.stop()
        imported = EventStore(tmp_path / "air.db")
        export = capture.export_jsonl(tmp_path / "air.jsonl")
        assert imported.import_capture_jsonl(export) == len(capture)

        def views(store):
            rows = store.events(kind=KIND_FRAME)
            return [frame_view(e.data, t=e.t, node=e.node, index=i) for i, e in enumerate(rows)]

        light, full = views(recorded), views(imported)
        assert len(light) == len(full) == len(capture) > 0
        for a, b, frame in zip(light, full, capture.frames):
            assert a["outcomes"] == {}
            assert {**a, "outcomes": None} == {**b, "outcomes": None}
            assert {int(n): DropReason(r) for n, r in b["outcomes"].items()} == frame.outcomes
        assert any(frame.delivered_to for frame in capture.frames)
        recorded.close()
        imported.close()

    def test_detach_restores_taps(self, tmp_path):
        net = MeshNetwork.from_positions(LINE4, config=CONFIG, seed=1)
        saved = [(n.on_route_event, n.on_forward_decision, n.on_app_delivery) for n in net.nodes]
        store = EventStore(tmp_path / "run.db")
        recorder = StoreRecorder(store, net).attach()
        assert net.medium.on_frame is not None
        recorder.detach()
        for node, (route, forward, delivery) in zip(net.nodes, saved):
            assert node.on_route_event is route
            assert node.on_forward_decision is forward
            assert node.on_app_delivery is delivery
        assert net.medium.on_frame is None
        assert net.medium.on_transmission is None  # never tapped by the store
        store.close()

    def test_observers_detach_out_of_order(self, tmp_path):
        # The checker attaches first and detaches first: the recorder,
        # tapped on top of it, must keep recording, and neither
        # observer may be left in a slot once both are gone.
        net = MeshNetwork.from_positions(line_positions(3, spacing_m=100.0), seed=1)
        store = EventStore(tmp_path / "run.db")
        checker = InvariantChecker(net, strict=False).attach()
        recorder = StoreRecorder(store, net, checker=checker).attach()
        checker.detach()
        net.run(for_s=900.0)
        route_events = sum(
            net.trace.count(kind)
            for kind in (EventKind.ROUTE_ADDED, EventKind.ROUTE_UPDATED, EventKind.ROUTE_REMOVED)
        )
        assert route_events == 6
        assert store.count(kind=KIND_ROUTE) == route_events
        recorder.detach()
        for node in net.nodes:
            assert node.on_route_event is None
            assert node.on_forward_decision is None
            assert node.reliable.on_deliver is None
        store.close()

    def test_forward_rows_are_sorted_json_of_each_decision(self, tmp_path):
        from repro.net.forwarding import ForwardAction, classify
        from repro.net.packets import AckPacket, DataPacket

        net = MeshNetwork.from_positions(line_positions(3, spacing_m=100.0), config=CONFIG, seed=1)
        assert net.run_until_converged(timeout_s=1200.0) is not None
        a, b, c = (node.address for node in net.nodes)
        middle = net.nodes[1]
        store = EventStore(tmp_path / "run.db")
        recorder = StoreRecorder(store, net).attach()
        packets = [
            DataPacket(dst=c, src=a, via=b, payload=b"x"),  # forward to c
            AckPacket(dst=a, src=c, via=b, seq_id=7, number=2),  # forward to a
            DataPacket(dst=0x0BAD, src=a, via=b, payload=b""),  # no route
            DataPacket(dst=c, src=a, via=0x0BEE, payload=b""),  # overhear
            DataPacket(dst=b, src=a, via=b, payload=b""),  # deliver
        ]
        expected = []
        for packet in packets:
            decision = classify(packet, b, middle.table, previous_hop=a)
            middle._handle_via_packet(packet, previous_hop=a)
            if decision.action in (ForwardAction.FORWARD, ForwardAction.NO_ROUTE):
                row = {
                    "action": decision.action.value,
                    "packet": type(packet).__name__,
                    "src": packet.src,
                    "dst": packet.dst,
                }
                if decision.next_hop is not None:
                    row["next_hop"] = decision.next_hop
                expected.append(json.dumps(row, sort_keys=True))
        store.flush()
        stored = [
            data
            for (data,) in store._conn.execute(
                "SELECT data FROM events WHERE kind = 'forward' ORDER BY id"
            )
        ]
        assert [json.loads(row)["action"] for row in stored] == ["forward", "forward", "no_route"]
        assert stored == expected  # byte for byte; overhear and deliver add no row
        recorder.detach()
        store.close()

    def test_recording_is_outcome_invisible(self, tmp_path):
        def fingerprint(with_store):
            net = MeshNetwork.from_positions(LINE4, config=CONFIG, seed=9)
            recorder = None
            store = None
            if with_store:
                store = EventStore(tmp_path / "fp.db")
                recorder = StoreRecorder(store, net).attach()
            net.run(for_s=900.0)
            if recorder is not None:
                recorder.detach()
                store.close()
            return (
                net.total_frames_sent(),
                net.total_bytes_sent(),
                [tuple((e.address, e.via, e.metric) for e in n.table) for n in net.nodes],
            )

        assert fingerprint(False) == fingerprint(True)

    def test_health_summary_is_byte_stable(self, tmp_path):
        _, store, _ = self.run_recorded(tmp_path)
        first = json.dumps(store.health_summary(), sort_keys=True)
        reader = EventStore(store.path, mode="r")
        again = json.dumps(reader.health_summary(), sort_keys=True)
        assert first == again  # live view == replayed view, byte for byte
        assert json.loads(first)["coverage"] == 1.0
        reader.close()
        store.close()


class TestRunProtocolStore:
    def test_run_protocol_stores_and_keeps_fingerprint(self, tmp_path):
        from repro.experiments.runner import Protocol, TrafficSpec, run_protocol

        traffic = [TrafficSpec(src_index=0, dst_index=3, period_s=120.0)]

        def run(store_path):
            result = run_protocol(
                Protocol.MESH,
                LINE4,
                traffic,
                duration_s=600.0,
                seed=5,
                config=CONFIG,
                store=store_path,
            )
            net = result.network
            return result, (
                net.total_frames_sent(),
                net.total_bytes_sent(),
                [tuple((e.address, e.via, e.metric) for e in n.table) for n in net.nodes],
            )

        stored, fp_on = run(tmp_path / "run.db")
        plain, fp_off = run(None)
        assert fp_on == fp_off  # store on/off: identical outcomes
        assert stored.store_path == tmp_path / "run.db"
        assert plain.store_path is None
        store = EventStore(stored.store_path, mode="r")
        counts = store.counts_by_kind()
        assert counts[KIND_FRAME] == stored.network.total_frames_sent()
        assert counts[KIND_SAMPLE] > 0
        assert any(
            e.data.get("phase") == "converged" for e in store.events(kind=KIND_MARKER)
        )
        meta = store.meta()
        assert meta["protocol"] == "mesh"
        assert meta["seed"] == 5
        store.close()

    def test_run_protocol_store_on_baseline_protocol(self, tmp_path):
        from repro.experiments.runner import Protocol, TrafficSpec, run_protocol

        result = run_protocol(
            Protocol.FLOODING,
            LINE4,
            [TrafficSpec(src_index=0, dst_index=3, period_s=120.0)],
            duration_s=600.0,
            seed=2,
            store=tmp_path / "flood.db",
        )
        store = EventStore(result.store_path, mode="r")
        assert store.count(kind=KIND_FRAME) > 0
        assert store.meta()["protocol"] == "flooding"
        store.close()
