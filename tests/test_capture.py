"""Tests for the air-capture sniffer."""

import collections
import itertools
import json

import pytest

from repro.medium.channel import DropReason
from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.topology.placement import grid_positions, line_positions
from repro.trace.capture import AirCapture

from tests.conftest import observed

FAST = MesherConfig(hello_period_s=30.0, route_timeout_s=120.0, purge_period_s=15.0)


@pytest.fixture
def captured_net():
    net = MeshNetwork.from_positions(line_positions(3), config=FAST, seed=9)
    capture = AirCapture(net.medium)
    net.run_until_converged(timeout_s=1800.0)
    a, c = net.nodes[0], net.nodes[-1]
    a.send_datagram(c.address, b"sniff me")
    net.run(for_s=60.0)
    return net, capture


class TestCapture:
    def test_sees_every_frame(self, captured_net):
        net, capture = captured_net
        assert capture.total_seen == net.total_frames_sent()
        assert len(capture) == capture.total_seen

    def test_decodes_packet_kinds(self, captured_net):
        _, capture = captured_net
        counts = capture.kind_counts()
        assert counts.get("RoutingPacket", 0) > 0
        assert counts.get("DataPacket", 0) == 2  # original + forwarded hop

    def test_outcomes_recorded(self, captured_net):
        net, capture = captured_net
        data_frames = capture.by_kind("DataPacket")
        # The first data frame (from the end node) was delivered to the
        # middle node at least.
        assert data_frames[0].delivered_to

    def test_by_sender(self, captured_net):
        net, capture = captured_net
        a = net.addresses[0]
        assert all(f.sender == a for f in capture.by_sender(a))
        assert len(capture.by_sender(a)) > 0

    def test_airtime_split(self, captured_net):
        _, capture = captured_net
        airtimes = capture.airtime_by_kind()
        assert airtimes["RoutingPacket"] > airtimes["DataPacket"]

    def test_capacity_caps_storage_not_count(self):
        net = MeshNetwork.from_positions(line_positions(2), config=FAST, seed=3)
        capture = AirCapture(net.medium, capacity=2)
        net.run(for_s=600.0)
        assert len(capture) == 2
        assert capture.total_seen > 2

    @pytest.mark.parametrize("stop_order", list(itertools.permutations(range(3))))
    def test_sniffers_share_the_medium(self, stop_order):
        net = MeshNetwork.from_positions(line_positions(3), seed=1)
        captures = [AirCapture(net.medium) for _ in range(3)]
        net.run(for_s=600.0)
        assert net.total_frames_sent() == 15
        assert [len(capture) for capture in captures] == [15, 15, 15]
        assert captures[0].frames == captures[1].frames == captures[2].frames
        for i in stop_order:
            captures[i].stop()
        assert net.medium.on_transmission is None

    def test_stop_detaches(self):
        net = MeshNetwork.from_positions(line_positions(2), config=FAST, seed=4)
        capture = AirCapture(net.medium)
        net.run(for_s=120.0)
        seen = capture.total_seen
        capture.stop()
        net.run(for_s=600.0)
        assert capture.total_seen == seen
        # A new sniffer can attach afterwards.
        AirCapture(net.medium)

    def test_format_renders_lines(self, captured_net):
        _, capture = captured_net
        text = capture.format(limit=5)
        assert "RoutingPacket" in text
        assert "more frames" in text or len(capture) <= 5

    def test_export_jsonl_roundtrips(self, captured_net, tmp_path):
        _, capture = captured_net
        path = capture.export_jsonl(tmp_path / "capture.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(capture)
        record = json.loads(lines[0])
        assert set(record) >= {"time", "sender", "kind", "outcomes"}

    def test_collision_counting(self):
        # Hidden terminals: a and b cannot hear each other (260 m apart),
        # both reach c — CAD cannot save them, the frames collide at c.
        config = FAST.replace(backoff_slots=0)
        net = MeshNetwork.from_positions(
            [(0.0, 0.0), (260.0, 0.0), (130.0, 0.0)], config=config, seed=5
        )
        capture = AirCapture(net.medium)
        net.run_until_converged(timeout_s=1800.0)
        a, b, c = net.nodes
        a.send_datagram(c.address, b"one" + bytes(60))
        b.send_datagram(c.address, b"two" + bytes(60))
        net.run(for_s=30.0)
        assert capture.collision_count() >= 1


def _observed_run(*, capture: bool):
    """A 3x3 grid's trace stream, outcome histogram and per-node stats,
    with the capture (if any) that watched it."""
    config = MesherConfig(hello_period_s=60.0, route_timeout_s=300.0, purge_period_s=30.0)
    net = MeshNetwork.from_positions(
        grid_positions(3, 3, spacing_m=80.0), config=config, seed=3
    )
    sniffer = AirCapture(net.medium) if capture else None
    net.run(for_s=900.0)
    return observed(net), sniffer


class TestSnifferIsPassive:
    def test_capture_changes_no_outcome(self):
        """A capture needs per-listener outcomes, so its medium resolves
        every frame with the full scan instead of aggregate accounting;
        nothing the network does may change."""
        plain, _ = _observed_run(capture=False)
        captured, capture = _observed_run(capture=True)
        assert captured[0] == plain[0], "trace streams diverged"
        assert captured[1] == plain[1], "drop-reason histograms diverged"
        assert captured[2] == plain[2], "node statistics diverged"
        # The capture saw every (frame, listener) outcome the medium counted.
        seen = collections.Counter(
            reason for frame in capture.frames for reason in frame.outcomes.values()
        )
        assert seen == {reason: n for reason, n in captured[1].items() if n}


class TestRoundTrip:
    def test_export_then_load_compares_equal(self, captured_net, tmp_path):
        from repro.trace.capture import load_capture_jsonl

        _, capture = captured_net
        path = capture.export_jsonl(tmp_path / "capture.jsonl")
        frames = load_capture_jsonl(path)
        assert frames == capture.frames
        # DropReason enums survive the trip, not just their string values
        outcomes = [o for frame in frames for o in frame.outcomes.values()]
        assert any(isinstance(o, DropReason) for o in outcomes) or all(
            o == "delivered" for o in outcomes
        )
