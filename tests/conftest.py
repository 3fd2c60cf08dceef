"""Shared fixtures for the test suite."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import pytest

from repro.medium.channel import Medium
from repro.phy.link import LinkBudget
from repro.phy.modulation import LoRaParams
from repro.phy.pathloss import LogDistancePathLoss
from repro.radio.driver import Radio
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

Position = Tuple[float, float]


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulation kernel."""
    return Simulator()


@pytest.fixture
def rngs() -> RngRegistry:
    """Deterministic RNG registry with a fixed master seed."""
    return RngRegistry(1234)


@pytest.fixture
def params() -> LoRaParams:
    """Default SF7/BW125 modulation parameters."""
    return LoRaParams()


@pytest.fixture
def medium(sim: Simulator) -> Medium:
    """A medium over the default log-distance channel (SF7 range ~135 m)."""
    return Medium(sim, LinkBudget(LogDistancePathLoss()))


def build_radios(
    sim: Simulator,
    medium: Medium,
    positions: Sequence[Position],
    params: LoRaParams,
    *,
    listen: bool = True,
) -> List[Radio]:
    """Radios with addresses 1..n at the given positions."""
    radios = []
    for i, position in enumerate(positions):
        radio = Radio(sim, medium, i + 1, position, params)
        if listen:
            radio.start_receive()
        radios.append(radio)
    return radios


def observed(net) -> tuple:
    """A network's trace stream, drop-reason histogram and per-node
    statistics: everything two runs that must not differ are compared on."""
    events = tuple(
        (e.time, e.node, e.kind, tuple(sorted(e.detail.items())))
        for e in net.trace.events()
    )
    stats = tuple(
        (
            n.address,
            n.radio.frames_sent,
            n.radio.frames_received,
            n.radio.frames_crc_failed,
            tuple(sorted((r.address, r.via, r.metric) for r in n.table)),
        )
        for n in net.nodes
    )
    return events, net.medium.outcome_counts(), stats


@pytest.fixture
def radio_pair(sim: Simulator, medium: Medium, params: LoRaParams) -> List[Radio]:
    """Two radios 50 m apart, both listening (well within range)."""
    return build_radios(sim, medium, [(0.0, 0.0), (50.0, 0.0)], params)
