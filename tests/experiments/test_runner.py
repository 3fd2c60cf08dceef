"""Tests for the protocol-agnostic experiment runner."""

import pytest

from repro.experiments.runner import (
    Protocol,
    TrafficSpec,
    all_pairs_traffic,
    endpoint_traffic,
    run_protocol,
)
from repro.net.config import MesherConfig
from repro.phy.modulation import LoRaParams, SpreadingFactor
from repro.phy.regions import US915
from repro.topology.placement import line_positions

FAST = MesherConfig(hello_period_s=30.0, route_timeout_s=120.0, purge_period_s=15.0)
LINE4 = line_positions(4)
FLOW = [TrafficSpec(src_index=0, dst_index=3, period_s=60.0)]


class TestTrafficSpecs:
    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            TrafficSpec(src_index=1, dst_index=1)

    def test_all_pairs_count(self):
        assert len(all_pairs_traffic(4)) == 12

    def test_all_pairs_limit(self):
        assert len(all_pairs_traffic(4, limit=5)) == 5

    def test_endpoint_traffic_bidirectional(self):
        specs = endpoint_traffic(5)
        assert [(s.src_index, s.dst_index) for s in specs] == [(0, 4), (4, 0)]


class TestRunProtocol:
    def test_mesh_delivers(self):
        result = run_protocol(
            Protocol.MESH, LINE4, FLOW, duration_s=600.0, seed=1, config=FAST
        )
        assert result.pdr > 0.9
        assert result.convergence_time_s is not None
        assert result.mean_latency_s is not None
        assert result.overhead.frames_sent > 0

    def test_flooding_delivers_without_convergence(self):
        result = run_protocol(Protocol.FLOODING, LINE4, FLOW, duration_s=600.0, seed=1)
        assert result.pdr > 0.9
        assert result.convergence_time_s == 0.0

    def test_star_fails_out_of_range(self):
        result = run_protocol(Protocol.STAR, LINE4, FLOW, duration_s=600.0, seed=1)
        # Source at x=0, central gateway at x=120 or 240: the 0->3 flow
        # spans 360 m, so at least one hop is out of SF7 range.
        assert result.pdr == 0.0

    def test_oracle_beats_or_matches_mesh_overhead(self):
        mesh = run_protocol(Protocol.MESH, LINE4, FLOW, duration_s=600.0, seed=1, config=FAST)
        oracle = run_protocol(Protocol.ORACLE, LINE4, FLOW, duration_s=600.0, seed=1, config=FAST)
        assert oracle.pdr >= mesh.pdr - 0.05
        assert oracle.overhead.frames_sent < mesh.overhead.frames_sent

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            run_protocol(Protocol.MESH, LINE4, FLOW, duration_s=0.0)

    def test_gateway_never_sources_star_flow(self):
        # Flow endpoints cover every central index: the runner must pick a
        # non-endpoint gateway.
        positions = line_positions(3)
        traffic = [
            TrafficSpec(src_index=0, dst_index=1, period_s=60.0),
            TrafficSpec(src_index=1, dst_index=2, period_s=60.0),
        ]
        with pytest.raises(ValueError):
            run_protocol(Protocol.STAR, positions, traffic, duration_s=60.0)


class TestSampling:
    def test_sampler_off_by_default(self):
        result = run_protocol(
            Protocol.MESH, LINE4, FLOW, duration_s=600.0, seed=1, config=FAST
        )
        assert result.sampler is None
        assert result.timeseries is None

    def test_mesh_run_collects_time_series(self):
        result = run_protocol(
            Protocol.MESH, LINE4, FLOW, duration_s=600.0, seed=1, config=FAST,
            sample_period_s=120.0,
        )
        series = result.timeseries
        assert series is not None
        assert series["period_s"] == 120.0
        assert len(series["samples"]) >= 5  # t=0 baseline + periodic + final
        frames = [p["values"]["repro_network_frames_total"] for p in series["samples"]]
        assert frames == sorted(frames)  # counters never decrease
        assert frames[-1] > 0
        pdr = series["samples"][-1]["values"]["repro_flows_pdr"]
        assert pdr == pytest.approx(result.pdr)

    def test_baseline_protocols_sample_too(self):
        for protocol in (Protocol.FLOODING, Protocol.STAR):
            result = run_protocol(
                protocol, LINE4, FLOW, duration_s=600.0, seed=1,
                sample_period_s=300.0,
            )
            assert result.timeseries is not None
            assert len(result.timeseries["samples"]) >= 2, protocol


US915_SF10 = MesherConfig(lora=LoRaParams(spreading_factor=SpreadingFactor.SF10), region=US915)
#: 120 B of payload: every baseline's data frame (128-130 B) airs for
#: 1.23-1.27 s at SF10, beyond US915's 400 ms dwell limit.
BIG_FLOW = [TrafficSpec(src_index=0, dst_index=2, period_s=60.0, payload_size=120)]


def _us915_run(protocol):
    return run_protocol(
        protocol, line_positions(3), BIG_FLOW, duration_s=600.0, seed=1, config=US915_SF10
    )


class TestBaselinesFollowTheConfig:
    @pytest.mark.parametrize("protocol", [Protocol.FLOODING, Protocol.STAR, Protocol.AODV])
    def test_nodes_use_the_config_region_and_params(self, protocol):
        result = _us915_run(protocol)
        for node in result.network.nodes:
            assert node.duty.region is US915
            assert node.radio.params == US915_SF10.lora

    @pytest.mark.parametrize("protocol", [Protocol.FLOODING, Protocol.STAR])
    def test_over_dwell_data_is_dropped_not_aired(self, protocol):
        result = _us915_run(protocol)
        sent = result.recorder.total_sent()
        assert sent > 0
        assert sum(node.stats.dwell_drops for node in result.network.nodes) == sent
        assert result.overhead.frames_sent == 0

    def test_aodv_discovery_airs_while_data_is_dropped(self):
        result = _us915_run(Protocol.AODV)
        nodes = result.network.nodes
        assert sum(node.stats.rreps_sent for node in nodes) > 0
        assert sum(node.stats.dwell_drops for node in nodes) > 0
        assert result.pdr == 0.0
        assert result.overhead.frames_sent > 0
        for node in nodes:
            # Only 15-16 B RREQ/RREP frames (0.33 s at SF10) went out.
            assert node.radio.bytes_sent <= 16 * node.radio.frames_sent
