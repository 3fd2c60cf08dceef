"""The baselines transmit under the mesh's rules: the config's region and
radio parameters, and a pump that leaves a powered-off radio alone."""

import pytest

from repro.baselines.aodv import AodvNetwork, AodvNode
from repro.baselines.flooding import FloodingNetwork
from repro.baselines.star import StarNetwork
from repro.net.config import MesherConfig
from repro.phy.modulation import LoRaParams, SpreadingFactor
from repro.phy.regions import US915
from repro.topology.placement import line_positions

US915_SF10 = MesherConfig(lora=LoRaParams(spreading_factor=SpreadingFactor.SF10), region=US915)


def test_us915_flooding_drops_an_over_dwell_frame():
    net = FloodingNetwork(line_positions(3), seed=1, config=US915_SF10)
    source = net.node(net.addresses[0])
    assert source.duty.region is US915
    assert source.radio.params == US915_SF10.lora
    source.send(net.addresses[-1], bytes(120))  # 129 B: 1.23 s at SF10
    net.run(for_s=60.0)
    assert source.stats.dwell_drops == 1
    assert net.total_frames_sent() == 0


def _flooding():
    return FloodingNetwork(line_positions(3), seed=1)


def _star():
    return StarNetwork(line_positions(3), gateway_index=1)


def _aodv():
    return AodvNetwork(line_positions(3), seed=1)


@pytest.mark.parametrize("build", [_flooding, _star, _aodv], ids=["flooding", "star", "aodv"])
def test_pump_leaves_a_powered_off_radio_alone(build):
    net = build()
    source = net.node(net.addresses[0])
    source.send(net.addresses[-1], b"lost with the power")
    source.radio.power_off()
    net.run(for_s=5.0)
    assert source.radio.frames_sent == 0


@pytest.mark.parametrize("build", [_flooding, _star, _aodv], ids=["flooding", "star", "aodv"])
def test_outbox_holds_the_send_queue_capacity_and_counts_drops(build):
    net = build()
    source = net.node(net.addresses[0])
    dst = net.addresses[-1]
    if isinstance(source, AodvNode):
        source._learn_route(dst, net.addresses[1], 2)  # every send goes to the pump
    capacity = MesherConfig().send_queue_capacity
    accepted = [source.send(dst, b"burst") for _ in range(capacity + 3)]
    assert accepted == [True] * capacity + [False] * 3
    assert len(source.pump.outbox) == capacity
    assert source.pump.outbox.dropped == 3
