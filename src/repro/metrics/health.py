"""Network health reports.

One call summarises a running :class:`~repro.net.api.MeshNetwork` the way
an operator dashboard would: routing coverage, per-node protocol and
radio counters, queue pressure, duty-cycle headroom, and energy.  Used by
the CLI, handy at the end of any experiment.

Since the observability layer landed, the snapshot is assembled from a
:class:`~repro.obs.registry.MetricsRegistry` populated by
:func:`~repro.obs.instrument.instrument_network` — the same instruments
the time-series sampler and the Prometheus/JSONL exporters read — rather
than by reaching into node attributes directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.tables import format_table
from repro.metrics.energy import EnergyModel
from repro.net.api import MeshNetwork
from repro.obs.instrument import instrument_network
from repro.obs.registry import MetricsRegistry


@dataclass(frozen=True)
class NodeHealth:
    """One node's health snapshot."""

    name: str
    routes: int
    neighbours: int
    frames_sent: int
    forwarded: int
    delivered: int
    no_route_drops: int
    crc_failures: int
    queue_depth: int
    queue_drops: int
    duty_utilisation: float
    tx_airtime_s: float
    energy_j: float


@dataclass(frozen=True)
class NetworkHealth:
    """Whole-network snapshot."""

    time_s: float
    nodes: List[NodeHealth]
    coverage: float
    total_frames: int
    total_airtime_s: float
    worst_duty: float

    def format(self) -> str:
        """Render the operator-dashboard view."""
        rows = [
            (
                n.name,
                n.routes,
                n.neighbours,
                n.frames_sent,
                n.forwarded,
                n.delivered,
                n.no_route_drops,
                n.queue_depth,
                f"{n.duty_utilisation * 100:.3f}%",
                f"{n.energy_j:.1f}",
            )
            for n in self.nodes
        ]
        table = format_table(
            ["node", "routes", "nbrs", "sent", "fwd", "dlvd", "noroute", "queue", "duty", "J"],
            rows,
            title=(
                f"Network health at t={self.time_s:.0f} s — coverage "
                f"{self.coverage * 100:.1f}%, {self.total_frames} frames, "
                f"{self.total_airtime_s:.1f} s airtime, worst duty "
                f"{self.worst_duty * 100:.3f}%"
            ),
        )
        return table


def _node_values(registry: MetricsRegistry) -> Dict[str, Dict[str, float]]:
    """Snapshot the registry into ``{node_name: {metric: value}}``."""
    by_node: Dict[str, Dict[str, float]] = {}
    for sample in registry.snapshot():
        labels = dict(sample.labels)
        node = labels.get("node")
        if node is not None:
            by_node.setdefault(node, {})[sample.name] = sample.value
    return by_node


def health_from_registry(
    registry: MetricsRegistry, *, time_s: float, node_order: Optional[List[str]] = None
) -> NetworkHealth:
    """Build a :class:`NetworkHealth` from an instrumented registry.

    ``node_order`` fixes the row order (defaults to sorted node labels).
    """
    by_node = _node_values(registry)
    names = node_order if node_order is not None else sorted(by_node)
    nodes = []
    for name in names:
        values = by_node.get(name, {})
        nodes.append(
            NodeHealth(
                name=name,
                routes=int(values.get("repro_node_routes", 0)),
                neighbours=int(values.get("repro_node_neighbours", 0)),
                frames_sent=int(values.get("repro_node_frames_sent_total", 0)),
                forwarded=int(values.get("repro_node_data_forwarded_total", 0)),
                delivered=int(values.get("repro_node_data_delivered_total", 0)),
                no_route_drops=int(values.get("repro_node_no_route_drops_total", 0)),
                crc_failures=int(values.get("repro_node_crc_failures_total", 0)),
                queue_depth=int(values.get("repro_node_queue_depth", 0)),
                queue_drops=int(values.get("repro_node_queue_drops_total", 0)),
                duty_utilisation=values.get("repro_node_duty_utilisation", 0.0),
                tx_airtime_s=values.get("repro_node_tx_airtime_seconds_total", 0.0),
                energy_j=values.get("repro_node_energy_joules_total", 0.0),
            )
        )
    return NetworkHealth(
        time_s=time_s,
        nodes=nodes,
        coverage=registry.value("repro_network_coverage"),
        total_frames=int(registry.value("repro_network_frames_total")),
        total_airtime_s=registry.value("repro_network_airtime_seconds_total"),
        worst_duty=max((n.duty_utilisation for n in nodes), default=0.0),
    )


#: Parses the sampler's flat ``name{k="v",...}`` keys back into a name
#: plus labels — the inverse of :attr:`MetricSample.key`.
_FLAT_KEY_RE = re.compile(r'^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$')
_LABEL_PAIR_RE = re.compile(r'(\w+)="([^"]*)"')


def health_from_flat_values(
    values: Dict[str, float], *, time_s: float
) -> NetworkHealth:
    """Build a :class:`NetworkHealth` from one flattened sample point.

    ``values`` is a :class:`~repro.obs.sampler.SamplePoint` ``values``
    dict (flat ``name{node="..."}`` keys) — what the time-series sampler
    and the event store persist.  This is how dashboards reconstruct
    per-node health cards from stored samples without a live network.
    """
    by_node: Dict[str, Dict[str, float]] = {}
    flat: Dict[str, float] = {}
    for key, value in values.items():
        match = _FLAT_KEY_RE.match(key)
        if match is None:
            continue
        name = match.group("name")
        labels = dict(_LABEL_PAIR_RE.findall(match.group("labels") or ""))
        node = labels.get("node")
        if node is not None:
            by_node.setdefault(node, {})[name] = value
        elif not labels:
            flat[name] = value
    nodes = []
    for name in sorted(by_node):
        v = by_node[name]
        nodes.append(
            NodeHealth(
                name=name,
                routes=int(v.get("repro_node_routes", 0)),
                neighbours=int(v.get("repro_node_neighbours", 0)),
                frames_sent=int(v.get("repro_node_frames_sent_total", 0)),
                forwarded=int(v.get("repro_node_data_forwarded_total", 0)),
                delivered=int(v.get("repro_node_data_delivered_total", 0)),
                no_route_drops=int(v.get("repro_node_no_route_drops_total", 0)),
                crc_failures=int(v.get("repro_node_crc_failures_total", 0)),
                queue_depth=int(v.get("repro_node_queue_depth", 0)),
                queue_drops=int(v.get("repro_node_queue_drops_total", 0)),
                duty_utilisation=v.get("repro_node_duty_utilisation", 0.0),
                tx_airtime_s=v.get("repro_node_tx_airtime_seconds_total", 0.0),
                energy_j=v.get("repro_node_energy_joules_total", 0.0),
            )
        )
    return NetworkHealth(
        time_s=time_s,
        nodes=nodes,
        coverage=flat.get("repro_network_coverage", 0.0),
        total_frames=int(flat.get("repro_network_frames_total", 0)),
        total_airtime_s=flat.get("repro_network_airtime_seconds_total", 0.0),
        worst_duty=max((n.duty_utilisation for n in nodes), default=0.0),
    )


def network_health(
    net: MeshNetwork, *, energy_model: Optional[EnergyModel] = None
) -> NetworkHealth:
    """Snapshot the health of every node in the network."""
    registry = MetricsRegistry()
    instrument_network(registry, net, energy_model=energy_model)
    return health_from_registry(
        registry, time_s=net.sim.now, node_order=[n.name for n in net.nodes]
    )
