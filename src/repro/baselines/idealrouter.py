"""Oracle routing upper bound.

LoRaMesher nodes with perfect knowledge: routing tables are pre-filled
with global shortest paths computed from the true connectivity graph, and
the hello service never runs.  The oracle therefore pays zero control
overhead and never has a stale route — the ceiling any distributed
protocol on the same substrate can approach but not beat.
"""

from __future__ import annotations

from typing import Optional, Sequence

import networkx as nx

from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.net.mesher import MesherNode
from repro.phy.pathloss import PathLossModel, Position
from repro.topology.graphs import connectivity_graph


class OracleNode(MesherNode):
    """A mesh node whose hello service is disabled (table is injected)."""

    def start(self) -> None:
        """Power up the radio but never beacon."""
        if self.started:
            return
        self._started = True
        if not self.radio.powered:
            self.radio.power_on()
        self.radio.start_receive()
        # Deliberately no self.hello.start(): routes come from the oracle.


class OracleNetwork(MeshNetwork):
    """MeshNetwork that builds OracleNode instances."""

    node_class = OracleNode


def build_oracle_network(
    positions: Sequence[Position],
    *,
    config: Optional[MesherConfig] = None,
    seed: int = 0,
    pathloss: Optional[PathLossModel] = None,
) -> OracleNetwork:
    """An oracle-routed network over the given placement.

    Tables are filled from all-pairs shortest paths on the true
    connectivity graph; unreachable pairs are left without routes (the
    oracle cannot route across a partition either).
    """
    net = OracleNetwork.from_positions(  # type: ignore[assignment]
        positions, config=config, seed=seed, pathloss=pathloss, autostart=True
    )
    populate_oracle_tables(net, positions)
    return net


def populate_oracle_tables(net: MeshNetwork, positions: Sequence[Position]) -> None:
    """Overwrite every node's routing table with global shortest paths."""
    params = net.nodes[0].config.lora if net.nodes else None
    if params is None:
        return
    graph = connectivity_graph(positions, net.medium.link_budget, params)
    addresses = net.addresses
    paths = dict(nx.all_pairs_shortest_path(graph))
    now = net.sim.now
    for i, address in enumerate(addresses):
        node = net.node(address)
        # Effectively infinite lifetime: the oracle's routes never expire.
        node.table.route_timeout = float("inf")
        for j, other in enumerate(addresses):
            if i == j:
                continue
            path = paths.get(i, {}).get(j)
            if path is None or len(path) < 2:
                continue
            next_hop = addresses[path[1]]
            # Force the exact shortest-path next hop even if an
            # equal-metric alternative exists.
            node.table.set_route(other, next_hop, len(path) - 1, 0, now)
