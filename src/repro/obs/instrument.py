"""Binding live simulation objects into a metrics registry.

This is the bridge that replaces ad-hoc ``node.stats`` field-reads: the
protocol stack keeps its cheap attribute counters, and
:func:`instrument_network` registers callback-backed instruments that
read them on snapshot.  Health reports, the CLI, the sampler, and the
exporters all consume the registry instead of reaching into node
internals.

Works for every :class:`~repro.net.api.Network`: the mesh and, degraded
gracefully via ``getattr``, the baseline networks (flooding/star/AODV
nodes carry a radio and the pump's counters but not every protocol
counter).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.energy import EnergyModel

#: Metric names registered per node (label ``node=<name>``).
NODE_METRICS = (
    "repro_node_routes",
    "repro_node_neighbours",
    "repro_node_frames_sent_total",
    "repro_node_bytes_sent_total",
    "repro_node_data_delivered_total",
    "repro_node_data_forwarded_total",
    "repro_node_ping_pong_forwards_total",
    "repro_node_no_route_drops_total",
    "repro_node_crc_failures_total",
    "repro_node_queue_depth",
    "repro_node_queue_drops_total",
    "repro_node_duty_utilisation",
    "repro_node_tx_airtime_seconds_total",
    "repro_node_energy_joules_total",
)


def _stat(node, name: str) -> float:
    stats = getattr(node, "stats", None)
    return float(getattr(stats, name, 0)) if stats is not None else 0.0


def instrument_node(
    registry: MetricsRegistry,
    node,
    sim,
    *,
    energy_model: Optional["EnergyModel"] = None,
) -> None:
    """Register callback-backed per-node instruments.

    ``node`` needs a ``radio``; routing table, send queue, duty
    accountant, and protocol stats are read when present so baseline
    nodes instrument too.  Idempotent per (registry, node).
    """
    # Imported lazily: repro.metrics.health consumes this module, so a
    # top-level import of repro.metrics would be circular.
    from repro.metrics.energy import TTGO_LORA32

    model = energy_model or TTGO_LORA32
    labels = {"node": getattr(node, "name", None) or f"{node.address:04X}"}

    def gauge(name, fn, help=""):
        registry.gauge(name, labels=labels, fn=fn, help=help)

    def counter(name, fn, help=""):
        registry.counter(name, labels=labels, fn=fn, help=help)

    table = getattr(node, "table", None)
    if table is not None:
        gauge("repro_node_routes", lambda t=table: t.size,
              help="Routing-table entries")
        gauge("repro_node_neighbours", lambda t=table: len(t.neighbours()),
              help="One-hop neighbours in the routing table")
    counter("repro_node_frames_sent_total", lambda n=node: _stat(n, "frames_sent"),
            help="Frames put on the air")
    counter("repro_node_bytes_sent_total", lambda n=node: _stat(n, "bytes_sent"),
            help="Bytes put on the air")
    counter("repro_node_data_delivered_total", lambda n=node: _stat(n, "data_delivered"),
            help="Data packets delivered to the application")
    counter("repro_node_data_forwarded_total", lambda n=node: _stat(n, "data_forwarded"),
            help="Data packets forwarded for other nodes")
    counter("repro_node_ping_pong_forwards_total", lambda n=node: _stat(n, "ping_pong_forwards"),
            help="Forwards whose next hop was the frame's previous transmitter")
    counter("repro_node_no_route_drops_total", lambda n=node: _stat(n, "no_route_drops"),
            help="Data packets dropped for lack of a route")
    counter("repro_node_crc_failures_total", lambda n=node: _stat(n, "crc_failures"),
            help="Frames discarded by the CRC filter")
    queue = getattr(node, "send_queue", None)
    if queue is not None:
        gauge("repro_node_queue_depth", lambda q=queue: len(q),
              help="Packets waiting in the send queue")
        counter("repro_node_queue_drops_total", lambda q=queue: q.dropped,
                help="Packets dropped by the bounded send queue")
    duty = getattr(node, "duty", None)
    if duty is not None:
        gauge(
            "repro_node_duty_utilisation",
            lambda d=duty, s=sim: d.window_utilisation(s.now),
            help="Duty-cycle window utilisation (0..1)",
        )
    radio = getattr(node, "radio", None)
    if radio is not None:
        counter(
            "repro_node_tx_airtime_seconds_total",
            lambda r=radio: r.tx_airtime_s,
            help="Cumulative transmit airtime (s)",
        )
        counter(
            "repro_node_energy_joules_total",
            lambda r=radio, m=model: m.radio_energy_j(r),
            help="Modelled radio energy spent (J)",
        )


def instrument_network(
    registry: MetricsRegistry,
    net,
    *,
    energy_model: Optional["EnergyModel"] = None,
) -> MetricsRegistry:
    """Register per-node and network-level instruments for ``net``.

    Returns the registry so callers can chain into a sampler.
    """
    sim = net.sim
    for node in net.nodes:
        instrument_node(registry, node, sim, energy_model=energy_model)
    if hasattr(net, "coverage"):
        registry.gauge(
            "repro_network_coverage",
            fn=net.coverage,
            help="Fraction of live ordered node pairs with a route (0..1)",
        )
    registry.counter(
        "repro_network_frames_total",
        fn=net.total_frames_sent,
        help="Frames put on the air across the whole network",
    )
    registry.counter(
        "repro_network_airtime_seconds_total",
        fn=net.total_airtime_s,
        help="Cumulative transmit airtime across the network (s)",
    )
    registry.gauge(
        "repro_network_nodes",
        fn=lambda n=net: len(n.nodes),
        help="Nodes attached to the network",
    )
    registry.counter(
        "repro_sim_events_total",
        fn=lambda s=sim: s.events_fired,
        help="Kernel events executed",
    )
    registry.gauge(
        "repro_sim_pending_events",
        fn=lambda s=sim: s.pending,
        help="Events still queued in the kernel",
    )
    trace = getattr(net, "trace", None)
    if trace is not None and hasattr(trace, "events_dropped"):
        # Ring overflow in long traced runs used to be visible only in
        # the recorder's repr; exporting it makes silent event loss show
        # up in `repro monitor` and every Prometheus/JSONL export.
        registry.counter(
            "repro_trace_events_dropped_total",
            fn=lambda t=trace: t.events_dropped,
            help="Trace events delivered to listeners but evicted by the capacity-bounded recorder",
        )
    return registry


def instrument_shards(registry: MetricsRegistry, result) -> MetricsRegistry:
    """Bind a finished :class:`~repro.sim.shard.ShardedRunResult` into the
    registry: boundary traffic, per-shard load, and barrier stalls.

    Shard metrics are post-run by nature (the shards lived in worker
    processes), so the instruments read the merged result snapshot.
    """
    for stats in result.stats:
        labels = {"shard": str(stats.shard)}
        registry.gauge(
            "repro_shard_nodes", labels=labels,
            fn=lambda s=stats: s.nodes,
            help="Nodes owned by the shard",
        )
        registry.counter(
            "repro_shard_events_total", labels=labels,
            fn=lambda s=stats: s.events,
            help="Kernel events the shard executed",
        )
        registry.counter(
            "repro_shard_frames_sent_total", labels=labels,
            fn=lambda s=stats: s.frames_sent,
            help="Frames the shard's nodes put on the air",
        )
        registry.counter(
            "repro_shard_boundary_exports_total", labels=labels,
            fn=lambda s=stats: s.exports_sent,
            help="Boundary-crossing frames the shard exported",
        )
        registry.counter(
            "repro_shard_ghosts_injected_total", labels=labels,
            fn=lambda s=stats: s.ghosts_received,
            help="Ghost frames re-aired into the shard at window barriers",
        )
        registry.counter(
            "repro_shard_busy_seconds_total", labels=labels,
            fn=lambda s=stats: s.busy_s,
            help="Wall-clock seconds spent executing the shard's windows",
        )
        registry.counter(
            "repro_shard_barrier_wait_seconds_total", labels=labels,
            fn=lambda s=stats: s.barrier_wait_s,
            help="Wall-clock seconds the shard's worker stalled at window barriers",
        )
    registry.gauge(
        "repro_shard_load_imbalance",
        fn=result.load_imbalance,
        help="max/mean busy wall-clock across shards (1.0 = even)",
    )
    registry.gauge(
        "repro_shard_windows_total",
        fn=lambda r=result: max((s.windows for s in r.stats), default=0),
        help="Conservative windows the run stepped through",
    )
    return registry


def instrument_flows(registry: MetricsRegistry, recorder) -> MetricsRegistry:
    """Bind a :class:`~repro.metrics.collect.FlowRecorder` into the
    registry: aggregate PDR, sent/delivered/duplicate counts."""
    registry.counter(
        "repro_flows_sent_total",
        fn=recorder.total_sent,
        help="Probe packets sent across all flows",
    )
    registry.counter(
        "repro_flows_delivered_total",
        fn=recorder.total_delivered,
        help="Unique probe packets delivered across all flows",
    )
    registry.counter(
        "repro_flows_duplicates_total",
        fn=recorder.total_duplicates,
        help="Duplicate probe deliveries across all flows",
    )
    registry.gauge(
        "repro_flows_pdr",
        fn=recorder.aggregate_pdr,
        help="Aggregate packet-delivery ratio (0..1)",
    )
    return registry


#: Metric names registered by :func:`instrument_flow_engine`.
FLOW_ENGINE_METRICS = (
    "repro_workload_flows_total",
    "repro_workload_flows_active",
    "repro_workload_flows_completed_total",
    "repro_workload_flows_failed_total",
    "repro_workload_messages_sent_total",
    "repro_workload_messages_delivered_total",
    "repro_workload_bytes_delivered_total",
    "repro_workload_latency_seconds",
    "repro_workload_goodput_bps",
    "repro_workload_streams_opened_total",
    "repro_workload_streams_reset_total",
)


def instrument_flow_engine(registry: MetricsRegistry, engine) -> MetricsRegistry:
    """Bind a :class:`~repro.workload.flows.FlowEngine` into the registry.

    Lifecycle counters plus per-kind/per-quantile latency and goodput
    gauges — all callback-backed, so a snapshot taken mid-run reports
    the percentiles over deliveries seen *so far*.
    """
    from repro.workload.flows import WORKLOAD_KINDS

    registry.gauge(
        "repro_workload_flows_total",
        fn=lambda e=engine: len(e.flows),
        help="Flows registered with the engine",
    )
    registry.gauge(
        "repro_workload_flows_active",
        fn=lambda e=engine: e.flows_active,
        help="Flows started and not yet closed",
    )
    registry.counter(
        "repro_workload_flows_completed_total",
        fn=lambda e=engine: e.flows_completed,
        help="Flows that closed cleanly (FIN)",
    )
    registry.counter(
        "repro_workload_flows_failed_total",
        fn=lambda e=engine: e.flows_failed,
        help="Flows that died on SYN failure or mid-stream reset",
    )
    registry.counter(
        "repro_workload_messages_sent_total",
        fn=lambda e=engine: e.messages_sent,
        help="Application messages queued on streams",
    )
    registry.counter(
        "repro_workload_messages_delivered_total",
        fn=lambda e=engine: e.messages_delivered,
        help="Application messages delivered in order, exactly once",
    )
    registry.counter(
        "repro_workload_bytes_delivered_total",
        fn=lambda e=engine: e.bytes_delivered,
        help="Application payload bytes delivered",
    )
    registry.counter(
        "repro_workload_streams_opened_total",
        fn=lambda e=engine: e.stream_counter_total("streams_opened"),
        help="Streams opened across every instrumented node",
    )
    registry.counter(
        "repro_workload_streams_reset_total",
        fn=lambda e=engine: e.stream_counter_total("streams_reset"),
        help="Streams torn down by RESET across every instrumented node",
    )
    for kind in ("all",) + WORKLOAD_KINDS:
        kind_arg = None if kind == "all" else kind
        for q in (50, 95, 99):
            registry.gauge(
                "repro_workload_latency_seconds",
                labels={"kind": kind, "quantile": str(q)},
                fn=lambda e=engine, q=q, k=kind_arg: e.latency_percentile(q, k) or 0.0,
                help="Per-message delivery latency percentile (sim seconds)",
            )
        registry.gauge(
            "repro_workload_goodput_bps",
            labels={"kind": kind, "quantile": "50"},
            fn=lambda e=engine, k=kind_arg: e.goodput_percentile(50, k) or 0.0,
            help="Median per-flow goodput (payload bits per sim second)",
        )
    return registry
