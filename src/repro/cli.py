"""Command-line interface.

A small operational surface mirroring what the demo showed on the serial
console, plus planning helpers::

    python -m repro.cli demo                     # the 4-node live demo
    python -m repro.cli simulate --nodes 6 --topology grid --duration 1800
    python -m repro.cli simulate --store run.db  # stream into an event store
    python -m repro.cli serve --store run.db     # live/replay web dashboard
    python -m repro.cli replay --store run.db --speed 60
    python -m repro.cli airtime --payload 24 --sf 7 9 12
    python -m repro.cli plan --spacing 120      # does this placement mesh?

Every subcommand is deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.tables import format_table
from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.phy.airtime import time_on_air
from repro.phy.link import LinkBudget
from repro.phy.modulation import LoRaParams, SpreadingFactor
from repro.phy.pathloss import LogDistancePathLoss
from repro.topology.graphs import connectivity_graph, graph_stats
from repro.topology.placement import grid_positions, line_positions, ring_positions


def _make_positions(topology: str, nodes: int, spacing: float):
    if topology == "line":
        return line_positions(nodes, spacing_m=spacing)
    if topology == "grid":
        side = max(2, round(nodes**0.5))
        rows = (nodes + side - 1) // side
        return grid_positions(rows, side, spacing_m=spacing)[:nodes]
    if topology == "ring":
        return ring_positions(nodes, radius_m=spacing)
    raise ValueError(f"unknown topology {topology!r}")


def _config(args: argparse.Namespace) -> MesherConfig:
    return MesherConfig(
        hello_period_s=args.hello_period,
        route_timeout_s=max(args.route_timeout, args.hello_period * 1.5),
        purge_period_s=max(args.hello_period / 4, 5.0),
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_demo(args: argparse.Namespace) -> int:
    """The paper's demo: 4 nodes, convergence, a routed exchange."""
    config = _config(args)
    net = MeshNetwork.from_positions(line_positions(4), config=config, seed=args.seed)
    print("Converging a 4-node line (120 m spacing, SF7) ...")
    convergence = net.run_until_converged(timeout_s=7200.0)
    if convergence is None:
        print("did not converge", file=sys.stderr)
        return 1
    print(f"converged after {convergence:.0f} s\n")
    print(net.describe())
    a, d = net.nodes[0], net.nodes[-1]
    a.send_datagram(d.address, b"hello mesh")
    net.run(for_s=60.0)
    message = d.receive()
    print(f"\n{d.name} received {message.payload!r} from {message.src:04X}")
    return 0


def _resolve_positions(args: argparse.Namespace):
    """Positions from --layout (a JSON deployment file) or the generator
    flags; returns (positions, layout_or_none)."""
    if getattr(args, "layout", None):
        from repro.topology.layout import load_layout

        layout = load_layout(args.layout)
        return layout.positions(), layout
    return _make_positions(args.topology, args.nodes, args.spacing), None


def _simulate_sharded(args: argparse.Namespace) -> int:
    """`simulate --shards N`: the same scenario on the sharded runner."""
    if args.capture or getattr(args, "trace", None) or getattr(args, "store", None):
        print(
            "error: --capture/--trace/--store need the in-process network "
            "and are not available with --shards > 1",
            file=sys.stderr,
        )
        return 2
    from repro.sim.shard import run_sharded

    positions, layout = _resolve_positions(args)
    config = _config(args)
    if layout is not None:
        config = config.replace(lora=layout.params())
    # Convergence is checked every ~10 s like the serial path, snapped to
    # a whole number of windows (the barrier alignment run_sharded needs).
    window = args.shard_window
    check = window * max(1, round(10.0 / window))
    result = run_sharded(
        positions,
        shards=args.shards,
        config=config,
        seed=args.seed,
        workers=args.shard_workers,
        window_s=window,
        converge_timeout_s=args.duration,
        check_period_s=check,
        extend_to_s=args.duration,
    )
    convergence = result.convergence_s
    rows = [
        (
            s.shard,
            s.nodes,
            s.events,
            s.frames_sent,
            f"{s.airtime_s:.2f}",
            s.exports_sent,
            s.ghosts_received,
            f"{s.busy_s:.2f}",
        )
        for s in result.stats
    ]
    print(
        format_table(
            ["shard", "nodes", "events", "frames", "TX airtime (s)", "exports", "ghosts", "busy (s)"],
            rows,
            title=(
                f"{args.shards} shard(s) x {result.workers} worker(s), "
                f"window {window:g} s, "
                + (
                    f"converged at {convergence:.0f} s"
                    if convergence is not None
                    else "DID NOT CONVERGE"
                )
            ),
        )
    )
    print(
        f"\nfingerprint {result.fingerprint['digest'][:16]}  "
        f"frames={result.frames} bytes={result.bytes} "
        f"boundary exports={result.boundary_exports} "
        f"load imbalance={result.load_imbalance():.2f}"
    )
    return 0 if convergence is not None else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a mesh and report routing/traffic/duty statistics."""
    if getattr(args, "shards", 1) > 1:
        return _simulate_sharded(args)
    positions, layout = _resolve_positions(args)
    config = _config(args)
    if layout is not None:
        config = config.replace(lora=layout.params())
    trace_path = getattr(args, "trace", None)
    net = MeshNetwork.from_positions(
        positions, config=config, seed=args.seed, trace_enabled=bool(trace_path)
    )
    capture = None
    if args.capture:
        from repro.trace.capture import AirCapture

        capture = AirCapture(net.medium)
    store = recorder = sampler = None
    if getattr(args, "store", None):
        from repro.obs import (
            EventStore,
            MetricsRegistry,
            StoreRecorder,
            TimeSeriesSampler,
            instrument_network,
        )

        store = EventStore(args.store, mode="w")
        store.set_meta("protocol", "mesh")
        store.set_meta("seed", args.seed)
        store.set_meta("n_nodes", len(positions))
        store.set_meta("duration_s", args.duration)
        sampler = TimeSeriesSampler(
            net.sim,
            instrument_network(MetricsRegistry(), net),
            period_s=max(args.duration / 30.0, 60.0),
        )
        sampler.sample_now()  # t=0 baseline point
        recorder = StoreRecorder(store, net, sampler=sampler).attach()
    convergence = net.run_until_converged(timeout_s=args.duration)
    if recorder is not None and convergence is not None:
        recorder.mark("converged", convergence_s=convergence)
    engine = None
    if getattr(args, "workload", None):
        from repro.workload.flows import FlowEngine, build_workload

        engine = FlowEngine(net)
        remaining = max(args.duration - net.sim.now, 60.0)
        engine.add_flows(
            build_workload(
                args.workload,
                [node.address for node in net.nodes],
                args.flows,
                seed=args.seed,
                messages=args.flow_messages,
                payload_bytes=args.flow_payload,
                window_s=remaining / 2.0,
            )
        )
        engine.start()
        if recorder is not None:
            # The engine's managers were created after the recorder
            # tapped the nodes; watch them so stream rows land too.
            for manager in engine.managers():
                recorder.watch_stream_manager(manager)
    remaining = args.duration - net.sim.now
    if remaining > 0:
        net.run(for_s=remaining)

    # Per-node rows come from the metrics registry rather than ad-hoc
    # attribute reads — the same instruments `repro monitor` samples.
    from repro.obs import MetricsRegistry, instrument_network

    registry = instrument_network(MetricsRegistry(), net)
    rows = []
    for node in net.nodes:
        labels = {"node": node.name}
        rows.append(
            (
                node.name,
                int(registry.value("repro_node_routes", labels)),
                int(registry.value("repro_node_frames_sent_total", labels)),
                int(registry.value("repro_node_data_forwarded_total", labels)),
                f"{registry.value('repro_node_tx_airtime_seconds_total', labels):.2f}",
                f"{registry.value('repro_node_duty_utilisation', labels) * 100:.3f}%",
            )
        )
    print(
        format_table(
            ["node", "routes", "frames", "forwarded", "TX airtime (s)", "duty"],
            rows,
            title=(
                f"{args.topology} x{args.nodes}, {args.duration:.0f} s, "
                f"converged at {convergence:.0f} s"
                if convergence is not None
                else f"{args.topology} x{args.nodes}: DID NOT CONVERGE"
            ),
        )
    )
    if engine is not None:
        from repro.obs import MetricsRegistry as _Registry
        from repro.obs.instrument import instrument_flow_engine

        flow_registry = instrument_flow_engine(_Registry(), engine)

        def _pct(kind: str, q: int) -> str:
            value = flow_registry.value(
                "repro_workload_latency_seconds", {"kind": kind, "quantile": str(q)}
            )
            return f"{value:.2f}" if value else "-"

        summary = engine.summary()
        flow_rows = [
            (
                ks.kind,
                ks.flows,
                ks.completed,
                ks.failed,
                _pct(ks.kind, 50),
                _pct(ks.kind, 95),
                _pct(ks.kind, 99),
                f"{ks.goodput_p50_bps:.1f}" if ks.goodput_p50_bps else "-",
            )
            for ks in summary.kinds
        ]
        flow_rows.append(
            (
                "all",
                summary.flows,
                summary.completed,
                summary.failed,
                _pct("all", 50),
                _pct("all", 95),
                _pct("all", 99),
                f"{g:.1f}" if (g := engine.goodput_percentile(50)) else "-",
            )
        )
        print()
        print(
            format_table(
                ["kind", "flows", "done", "failed", "p50 (s)", "p95 (s)", "p99 (s)", "goodput p50 (bps)"],
                flow_rows,
                title=(
                    f"workload {args.workload}: {summary.flows} flows, "
                    f"delivery ratio {summary.delivery_ratio:.3f}"
                ),
            )
        )
    if capture is not None:
        path = capture.export_jsonl(args.capture)
        print(f"\nair capture: {len(capture)} frames written to {path}")
    if trace_path:
        path = net.trace.export_jsonl(trace_path)
        print(f"\ntrace: {len(net.trace)} events written to {path}")
    if recorder is not None and store is not None:
        if sampler is not None:
            sampler.stop()
            sampler.sample_now()  # end-of-run health point
        recorder.detach()
        count = store.count()
        store.close()
        print(
            f"\nevent store: {count} events in {args.store} "
            f"(serve with `repro serve --store {args.store}`)"
        )
    return 0 if convergence is not None else 1


def _sweep_point(point: dict) -> dict:
    """One ``repro sweep`` trial.

    Module-level (not a closure) so ``--workers`` can ship it to worker
    processes; everything the trial needs arrives in the point dict and
    the RNG seed is explicit, so parallel and serial sweeps agree.
    """
    config = MesherConfig(
        hello_period_s=point["hello_period"],
        route_timeout_s=max(point["route_timeout"], point["hello_period"] * 1.5),
        purge_period_s=max(point["hello_period"] / 4, 5.0),
    )
    positions = _make_positions(point["topology"], point["nodes"], point["spacing"])
    net = MeshNetwork.from_positions(
        positions, config=config, seed=point["seed"], trace_enabled=False
    )
    convergence = net.run_until_converged(timeout_s=point["timeout"])
    return {
        "nodes": point["nodes"],
        "seed": point["seed"],
        "convergence_s": convergence,
        "frames": net.total_frames_sent(),
        "bytes": net.total_bytes_sent(),
        "airtime_s": net.total_airtime_s(),
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep network sizes with repeated derived seeds, optionally in
    parallel worker processes."""
    from repro.experiments.sweep import derive_seed, run_parallel
    from repro.metrics.stats import mean

    points: List[dict] = []
    for nodes in args.nodes:
        for _ in range(args.repeats):
            points.append(
                {
                    "topology": args.topology,
                    "nodes": nodes,
                    "spacing": args.spacing,
                    "seed": derive_seed(args.seed, len(points)),
                    "hello_period": args.hello_period,
                    "route_timeout": args.route_timeout,
                    "timeout": args.timeout,
                }
            )
    results = run_parallel(points, _sweep_point, workers=args.workers)
    rows = []
    for nodes in args.nodes:
        group = [r for r in results if r["nodes"] == nodes]
        times = [r["convergence_s"] for r in group if r["convergence_s"] is not None]
        rows.append(
            (
                nodes,
                f"{mean(times):.0f}" if times else "timeout",
                f"{len(times)}/{len(group)}",
                f"{mean([float(r['frames']) for r in group]):.0f}",
                f"{mean([float(r['bytes']) for r in group]):.0f}",
                f"{mean([r['airtime_s'] for r in group]):.2f}",
            )
        )
    workers = args.workers or 1
    print(
        format_table(
            ["nodes", "convergence (s)", "converged", "frames", "bytes", "airtime (s)"],
            rows,
            title=(
                f"sweep: {args.topology}, {args.repeats} seed(s)/point, "
                f"{workers} worker(s), master seed {args.seed}"
            ),
        )
    )
    return 0 if all(r["convergence_s"] is not None for r in results) else 1


def cmd_monitor(args: argparse.Namespace) -> int:
    """Run a mesh while sampling health as a time series."""
    from repro.metrics.health import network_health
    from repro.obs import MetricsRegistry, TimeSeriesSampler, instrument_network

    if args.interval <= 0:
        print(f"error: --interval must be positive, got {args.interval:g}")
        return 2
    positions, layout = _resolve_positions(args)
    config = _config(args)
    if layout is not None:
        config = config.replace(lora=layout.params())
    net = MeshNetwork.from_positions(positions, config=config, seed=args.seed, trace_enabled=False)
    registry = instrument_network(MetricsRegistry(), net)
    sampler = TimeSeriesSampler(net.sim, registry, period_s=args.interval)
    sampler.sample_now()  # t=0 baseline point
    net.run(for_s=args.duration)
    sampler.stop()

    rows = []
    for point in sampler.points:
        values = point.values
        depth = sum(v for k, v in values.items() if k.startswith("repro_node_queue_depth"))
        worst_duty = max(
            (v for k, v in values.items() if k.startswith("repro_node_duty_utilisation")),
            default=0.0,
        )
        rows.append(
            (
                f"{point.time_s:.0f}",
                f"{values.get('repro_network_coverage', 0.0) * 100:.1f}%",
                int(values.get("repro_network_frames_total", 0)),
                f"{values.get('repro_network_airtime_seconds_total', 0.0):.2f}",
                int(depth),
                f"{worst_duty * 100:.3f}%",
            )
        )
    print(
        format_table(
            ["t (s)", "coverage", "frames", "airtime (s)", "queued", "worst duty"],
            rows,
            title=(
                f"Sampled health: {args.topology} x{args.nodes}, "
                f"every {args.interval:.0f} s over {args.duration:.0f} s"
            ),
        )
    )
    print()
    print(network_health(net).format())
    if args.csv:
        print(f"\ntime series written to {sampler.export_csv(args.csv)}")
    if args.jsonl:
        print(f"\ntime series written to {sampler.export_jsonl(args.jsonl)}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a mesh under the kernel profiler and print the hot spots."""
    from repro.obs import KernelProfiler

    positions, layout = _resolve_positions(args)
    config = _config(args)
    if layout is not None:
        config = config.replace(lora=layout.params())
    net = MeshNetwork.from_positions(positions, config=config, seed=args.seed, trace_enabled=False)
    profiler = KernelProfiler().attach(net.sim)
    net.run(for_s=args.duration)
    profiler.detach()
    print(profiler.format(limit=args.limit))
    print(
        f"\n{net.sim.events_fired} kernel events over {args.duration:.0f} simulated s "
        f"({net.sim.events_fired / args.duration:.1f} events/sim-s)"
    )
    return 0


def cmd_ping(args: argparse.Namespace) -> int:
    """End-to-end reachability/RTT check across a line topology."""
    from repro.apps.ping import Pinger, deploy_responders

    config = _config(args)
    positions = _make_positions(args.topology, args.nodes, args.spacing)
    net = MeshNetwork.from_positions(positions, config=config, seed=args.seed, trace_enabled=False)
    convergence = net.run_until_converged(timeout_s=7200.0)
    if convergence is None:
        print("mesh did not converge", file=sys.stderr)
        return 1
    deploy_responders(net.nodes)
    source, target = net.nodes[0], net.nodes[-1]
    hops = source.table.metric(target.address)
    print(
        f"PING {target.name} from {source.name} "
        f"({hops} hops, converged at {convergence:.0f} s)"
    )
    pinger = Pinger(source)
    result = pinger.ping(target.address, count=args.count, interval_s=args.interval)
    net.run(for_s=args.count * args.interval + 120.0)
    print(result.format())
    return 0 if result.received == result.sent else 1


def cmd_airtime(args: argparse.Namespace) -> int:
    """Time-on-air table for a payload size across spreading factors."""
    rows = []
    for sf_value in args.sf:
        sf = SpreadingFactor(sf_value)
        params = LoRaParams(spreading_factor=sf)
        toa = time_on_air(args.payload, params)
        per_hour = 3600.0 * 0.01 / toa  # EU868 budget
        rows.append((sf.name, f"{toa * 1000:.1f}", f"{per_hour:.0f}"))
    print(
        format_table(
            ["SF", "ToA (ms)", "frames/hour within EU868 1%"],
            rows,
            title=f"{args.payload} B PHY payload, BW125, CR4/5",
        )
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run an invariant-audited scenario, optionally under churn."""
    import json

    from repro.verify import InvariantChecker, FaultInjector, random_churn_plan

    positions = _make_positions(args.topology, args.nodes, args.spacing)
    config = _config(args)
    net = MeshNetwork.from_positions(
        positions, config=config, seed=args.seed, trace_enabled=False
    )
    checker = InvariantChecker(
        net,
        audit_period_s=args.audit_period,
        strict=True if args.strict else None,
    ).attach()
    injector = None
    if args.churn > 0:
        plan = random_churn_plan(
            net.addresses,
            seed=args.seed,
            start=args.duration * 0.25,
            end=args.duration * 0.75,
            cycles=args.churn,
            down_s=max(config.route_timeout_s, args.duration * 0.1),
        )
        injector = FaultInjector(net, plan, seed=args.seed).arm()
    convergence = net.run_until_converged(timeout_s=args.duration)

    # Light probe traffic so delivery/conservation invariants see data
    # frames, not just the control plane: every node periodically sends
    # a datagram to the node "opposite" it in address order.
    addresses = net.addresses

    def probe_round() -> None:
        for i, addr in enumerate(addresses):
            node = net.node(addr)
            peer = addresses[(i + len(addresses) // 2) % len(addresses)]
            if peer != addr and node.started and node.radio.powered:
                if node.table.has_route(peer):
                    node.send_datagram(peer, b"verify-probe")

    net.sim.periodic(args.traffic_period, probe_round, label="verify probes")
    remaining = args.duration - net.sim.now
    if remaining > 0:
        net.run(for_s=remaining)
    checker.audit()

    summary = checker.summary()
    summary["convergence_s"] = convergence
    summary["nodes"] = args.nodes
    summary["seed"] = args.seed
    if injector is not None:
        summary["fault_events"] = len(injector.plan.events)
        summary["fault_dropped_frames"] = injector.dropped_frames
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if checker.violations else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the web dashboard over an event store (live or finished)."""
    from repro.obs.dashboard import DashboardServer

    try:
        server = DashboardServer(args.store, host=args.host, port=args.port)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"dashboard for {args.store} at {server.url} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-drive a stored time range on the console at adjustable speed."""
    import json
    import time as _time

    from repro.net.addresses import format_address
    from repro.obs.store import EventStore

    try:
        store = EventStore(args.store, mode="r")
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tmin, tmax = store.time_range()
    t0 = args.start if args.start is not None else tmin
    t1 = args.end if args.end is not None else tmax + 1.0
    kinds = set(args.kind) if args.kind else None
    print(
        f"replaying {args.store}: t in [{t0:.0f}, {t1:.0f}) s "
        f"at {args.speed:g}x" + (f", kinds {sorted(kinds)}" if kinds else "")
    )
    shown = 0
    cursor = 0
    prev_t = None
    try:
        while True:
            batch = store.events(after_id=cursor, t0=t0, t1=t1, limit=1000)
            if not batch:
                break
            for event in batch:
                cursor = event.id
                if kinds is not None and event.kind not in kinds:
                    continue
                if args.speed > 0 and prev_t is not None and event.t > prev_t:
                    _time.sleep(min((event.t - prev_t) / args.speed, 5.0))
                prev_t = event.t
                print(
                    f"{event.t:10.3f}s  {event.kind:<9} "
                    f"{_format_event(event, format_address)}"
                )
                shown += 1
                if args.limit is not None and shown >= args.limit:
                    break
            if args.limit is not None and shown >= args.limit:
                break
        print(f"\n{shown} events replayed")
        if args.summary:
            print(json.dumps(store.health_summary(t1), indent=2, sort_keys=True))
    except BrokenPipeError:
        # Reader (head, a pager) went away mid-stream: exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    store.close()
    return 0


def _format_event(event, format_address) -> str:
    """One console line per stored event kind."""
    data = event.data
    node = format_address(event.node) if event.node is not None else "-"
    if event.kind == "route":
        return (
            f"{node} {data['event']:<8} dst={format_address(data['dst'])} "
            f"via={format_address(data['via'])} metric={data['metric']}"
        )
    if event.kind == "frame":
        from repro.obs.store import frame_view

        view = frame_view(data, t=event.t, node=event.node)
        return f"{node} {view['kind']:<14} {view['size']:3d}B  {view['summary']}"
    if event.kind == "forward":
        next_hop = data.get("next_hop")
        return (
            f"{node} {data['action']:<8} {format_address(data['src'])}->"
            f"{format_address(data['dst'])}"
            + (f" via {format_address(next_hop)}" if next_hop is not None else "")
        )
    if event.kind == "delivery":
        return f"{node} delivered {data['bytes']}B from {format_address(data['src'])}"
    if event.kind == "violation":
        return f"{node} VIOLATION {data['invariant']}: {data['detail']}"
    if event.kind == "sample":
        return f"registry sample ({len(data.get('values', {}))} series)"
    if event.kind == "marker":
        return f"-- {data.get('phase', '?')} --"
    if event.kind == "stream":
        side = "init" if data.get("initiator") else "resp"
        return (
            f"{node} stream {data['event']:<9} "
            f"peer={format_address(data['peer'])} id={data['stream']} "
            f"{side} seq={data['seq']}"
        )
    return str(data)


def cmd_plan(args: argparse.Namespace) -> int:
    """Connectivity check for a placement before deploying it."""
    positions = _make_positions(args.topology, args.nodes, args.spacing)
    budget = LinkBudget(LogDistancePathLoss())
    if args.auto_sf:
        from repro.topology.planning import minimum_connecting_sf

        chosen = minimum_connecting_sf(positions, budget)
        if chosen is None:
            print("no spreading factor connects this placement; add nodes")
            return 1
        print(f"cheapest connecting spreading factor: {chosen.name}")
        sf_value = int(chosen)
    else:
        sf_value = args.sf[0]
    params = LoRaParams(spreading_factor=SpreadingFactor(sf_value))
    graph = connectivity_graph(positions, budget, params)
    stats = graph_stats(graph)
    print(
        format_table(
            ["metric", "value"],
            [
                ("nodes", stats.nodes),
                ("links", stats.edges),
                ("connected", "yes" if stats.connected else "NO"),
                ("components", stats.components),
                ("diameter (hops)", stats.diameter if stats.connected else "-"),
                ("mean degree", f"{stats.mean_degree:.2f}"),
            ],
            title=f"{args.topology} x{args.nodes} at {args.spacing:.0f} m, SF{sf_value}",
        )
    )
    return 0 if stats.connected else 1


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LoRaMesher reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="master RNG seed")
        p.add_argument("--hello-period", type=float, default=60.0, help="hello period (s)")
        p.add_argument("--route-timeout", type=float, default=300.0, help="route timeout (s)")

    demo = sub.add_parser("demo", help="run the paper's 4-node demo")
    common(demo)
    demo.set_defaults(func=cmd_demo)

    simulate = sub.add_parser("simulate", help="run a mesh and report statistics")
    common(simulate)
    simulate.add_argument("--nodes", type=int, default=4)
    simulate.add_argument("--topology", choices=("line", "grid", "ring"), default="line")
    simulate.add_argument("--spacing", type=float, default=120.0, help="node spacing (m)")
    simulate.add_argument("--duration", type=float, default=1800.0, help="simulated seconds")
    simulate.add_argument(
        "--capture", metavar="PATH", default=None,
        help="write an air capture (JSON lines) of every frame to PATH",
    )
    simulate.add_argument(
        "--layout", metavar="PATH", default=None,
        help="run a JSON deployment layout instead of a generated topology",
    )
    simulate.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record protocol trace events and write them to PATH as JSON lines",
    )
    simulate.add_argument(
        "--store", metavar="PATH", default=None,
        help="stream every frame, route event, delivery and health sample "
        "into a SQLite event store at PATH (serve it with `repro serve`)",
    )
    simulate.add_argument(
        "--workload", choices=("bursty", "ota", "chat", "mixed"), default=None,
        help="drive a stream-flow workload over the converged mesh and "
        "report per-flow latency/goodput percentiles",
    )
    simulate.add_argument(
        "--flows", type=int, default=100,
        help="concurrent flows for --workload (default: 100)",
    )
    simulate.add_argument(
        "--flow-messages", type=int, default=3,
        help="messages per flow for --workload (default: 3)",
    )
    simulate.add_argument(
        "--flow-payload", type=int, default=32,
        help="payload bytes per message for --workload (default: 32)",
    )
    simulate.add_argument(
        "--shards", type=int, default=1,
        help="partition the mesh into N spatial strips and run them on "
        "the sharded multi-process runner (default: 1 = serial)",
    )
    simulate.add_argument(
        "--shard-workers", type=int, default=None,
        help="worker processes for --shards (default: one per shard; "
        "1 = run every shard in-process)",
    )
    simulate.add_argument(
        "--shard-window", type=float, default=1.0,
        help="conservative window (simulated s) between shard barriers",
    )
    simulate.set_defaults(func=cmd_simulate)

    serve = sub.add_parser(
        "serve", help="serve the web dashboard over an event store"
    )
    serve.add_argument(
        "--store", metavar="PATH", required=True,
        help="event store written by `repro simulate --store` (may still be "
        "growing: the dashboard tails it live)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8437, help="TCP port (0 = any free)")
    serve.set_defaults(func=cmd_serve)

    replay = sub.add_parser(
        "replay", help="re-drive a stored time range on the console"
    )
    replay.add_argument(
        "--store", metavar="PATH", required=True,
        help="event store written by `repro simulate --store`",
    )
    replay.add_argument(
        "--start", type=float, default=None, metavar="T",
        help="start of the replayed range (simulated s; default: store start)",
    )
    replay.add_argument(
        "--end", type=float, default=None, metavar="T",
        help="end of the replayed range (simulated s; default: store end)",
    )
    replay.add_argument(
        "--speed", type=float, default=0.0,
        help="pacing factor: 1 = real time, 10 = 10x, 0 = instant (default)",
    )
    replay.add_argument(
        "--kind", action="append", default=None,
        choices=("frame", "route", "forward", "delivery", "violation", "sample", "trace", "marker", "stream"),
        help="only replay these event kinds (repeatable; default: all)",
    )
    replay.add_argument(
        "--limit", type=int, default=None, help="stop after N printed events"
    )
    replay.add_argument(
        "--summary", action="store_true",
        help="print the end-of-range health summary as JSON",
    )
    replay.set_defaults(func=cmd_replay)

    sweep = sub.add_parser(
        "sweep", help="sweep network sizes over repeated seeds, optionally in parallel"
    )
    common(sweep)
    sweep.add_argument(
        "--nodes", type=int, nargs="+", default=[4, 8, 12], help="network sizes to sweep"
    )
    sweep.add_argument("--topology", choices=("line", "grid", "ring"), default="grid")
    sweep.add_argument("--spacing", type=float, default=120.0, help="node spacing (m)")
    sweep.add_argument("--repeats", type=int, default=3, help="seeds per sweep point")
    sweep.add_argument(
        "--timeout", type=float, default=3600.0, help="convergence timeout (simulated s)"
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the sweep (default: serial); results are "
        "identical to a serial run — every point's seed is derived from "
        "the master seed, not from process state",
    )
    sweep.set_defaults(func=cmd_sweep)

    monitor = sub.add_parser(
        "monitor", help="run a mesh and stream sampled time-series health"
    )
    common(monitor)
    monitor.add_argument("--nodes", type=int, default=4)
    monitor.add_argument("--topology", choices=("line", "grid", "ring"), default="line")
    monitor.add_argument("--spacing", type=float, default=120.0, help="node spacing (m)")
    monitor.add_argument("--duration", type=float, default=1800.0, help="simulated seconds")
    monitor.add_argument(
        "--interval", type=float, default=120.0, help="sampling period (simulated s)"
    )
    monitor.add_argument(
        "--csv", metavar="PATH", default=None, help="also export the time series as CSV"
    )
    monitor.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="also export the time series as JSON lines",
    )
    monitor.add_argument(
        "--layout", metavar="PATH", default=None,
        help="run a JSON deployment layout instead of a generated topology",
    )
    monitor.set_defaults(func=cmd_monitor)

    profile = sub.add_parser(
        "profile", help="profile the simulation kernel and print hot spots"
    )
    common(profile)
    profile.add_argument("--nodes", type=int, default=8)
    profile.add_argument("--topology", choices=("line", "grid", "ring"), default="grid")
    profile.add_argument("--spacing", type=float, default=120.0, help="node spacing (m)")
    profile.add_argument("--duration", type=float, default=1800.0, help="simulated seconds")
    profile.add_argument("--limit", type=int, default=20, help="hot-spot rows to print")
    profile.add_argument(
        "--layout", metavar="PATH", default=None,
        help="run a JSON deployment layout instead of a generated topology",
    )
    profile.set_defaults(func=cmd_profile)

    ping = sub.add_parser("ping", help="end-to-end reachability/RTT check")
    common(ping)
    ping.add_argument("--nodes", type=int, default=4)
    ping.add_argument("--topology", choices=("line", "grid", "ring"), default="line")
    ping.add_argument("--spacing", type=float, default=120.0)
    ping.add_argument("--count", type=int, default=5, help="echo requests to send")
    ping.add_argument("--interval", type=float, default=15.0, help="seconds between requests")
    ping.set_defaults(func=cmd_ping)

    airtime = sub.add_parser("airtime", help="time-on-air table")
    airtime.add_argument("--payload", type=int, default=24, help="PHY payload bytes")
    airtime.add_argument(
        "--sf", type=int, nargs="+", default=[7, 8, 9, 10, 11, 12], help="spreading factors"
    )
    airtime.set_defaults(func=cmd_airtime)

    verify = sub.add_parser(
        "verify", help="run an invariant-audited scenario and report violations"
    )
    common(verify)
    verify.add_argument("--nodes", type=int, default=9)
    verify.add_argument("--topology", choices=("line", "grid", "ring"), default="grid")
    verify.add_argument("--spacing", type=float, default=120.0, help="node spacing (m)")
    verify.add_argument("--duration", type=float, default=3600.0, help="simulated seconds")
    verify.add_argument(
        "--audit-period", type=float, default=30.0,
        help="seconds between full invariant audits",
    )
    verify.add_argument(
        "--traffic-period", type=float, default=120.0,
        help="seconds between probe datagram rounds",
    )
    verify.add_argument(
        "--churn", type=int, default=0, metavar="CYCLES",
        help="inject CYCLES deterministic crash/revive cycles mid-run",
    )
    verify.add_argument(
        "--strict", action="store_true",
        help="raise on the first violation (default: count and report)",
    )
    verify.set_defaults(func=cmd_verify)

    plan = sub.add_parser("plan", help="connectivity check for a placement")
    plan.add_argument("--nodes", type=int, default=4)
    plan.add_argument("--topology", choices=("line", "grid", "ring"), default="line")
    plan.add_argument("--spacing", type=float, default=120.0)
    plan.add_argument("--sf", type=int, nargs="+", default=[7])
    plan.add_argument(
        "--auto-sf", action="store_true",
        help="pick the cheapest spreading factor that connects the placement",
    )
    plan.set_defaults(func=cmd_plan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
