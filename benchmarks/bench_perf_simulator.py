"""P1 — Performance of the simulation substrate itself.

Not a paper experiment: these benches characterise the reproduction's
own machinery (kernel event throughput, medium reception resolution,
whole-stack simulated-seconds per wall-second) so regressions in the
substrate are caught before they silently stretch every other bench.

Unlike the E/F/A benches these use real pytest-benchmark rounds — the
workloads are microseconds-to-milliseconds and benefit from statistics.
"""

from functools import partial

from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.sim.kernel import Simulator
from repro.topology.placement import grid_positions

BENCH_CONFIG = MesherConfig(hello_period_s=60.0, route_timeout_s=300.0, purge_period_s=30.0)


def test_perf_kernel_event_throughput(benchmark):
    """Schedule+fire cost of 10k chained events."""

    def run_events():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count

    count = benchmark(run_events)
    assert count == 10_000


def test_perf_kernel_timer_churn(benchmark):
    """Arm-and-cancel cost (the protocol's dominant kernel pattern)."""

    def churn():
        sim = Simulator()
        for _ in range(5_000):
            handle = sim.schedule(1.0, lambda: None)
            handle.cancel()
        sim.run(until=2.0)
        return sim.events_fired

    fired = benchmark(churn)
    assert fired == 0  # everything was cancelled


def test_perf_mesh_simulated_hour(benchmark):
    """Whole-stack throughput: one simulated hour of a 9-node mesh."""

    def run_hour():
        net = MeshNetwork.from_positions(
            grid_positions(3, 3, spacing_m=100.0),
            config=BENCH_CONFIG,
            seed=1,
            trace_enabled=False,
        )
        net.run(for_s=3600.0)
        return net.total_frames_sent()

    frames = benchmark(run_hour)
    assert frames > 0


def _bench_net():
    return MeshNetwork.from_positions(
        grid_positions(3, 3, spacing_m=100.0),
        config=BENCH_CONFIG,
        seed=1,
        trace_enabled=False,
    )


def test_perf_mesh_hour_run_baseline(benchmark):
    """One simulated hour, network construction excluded.

    Baseline half of the store-overhead pair: measures ``net.run`` alone
    so it has the same region boundaries as the stored variant below.
    """

    def setup():
        return (_bench_net(),), {}

    def run(net):
        net.run(for_s=3600.0)
        return net.total_frames_sent()

    frames = benchmark.pedantic(run, setup=setup, rounds=15)
    assert frames > 0


def test_perf_mesh_hour_run_stored(benchmark, tmp_path):
    """The same simulated hour, streamed into a WAL-mode event store.

    Pairs with ``test_perf_mesh_hour_run_baseline``: the delta is the
    recording overhead of persistent observability (frame/route taps,
    hand-encoded JSON rows, SQLite batch commits) over the workload,
    including the end-of-run detach flush.  Store creation and the
    final close (index build + WAL checkpoint) are per-run fixed costs,
    kept in setup/cleanup.  Acceptance budget: < 10% over baseline —
    recorded as a paired entry in BENCH_perf.json.
    """
    from repro.obs.store import EventStore, StoreRecorder

    stores = []

    def setup():
        net = _bench_net()
        store = EventStore(tmp_path / f"bench-{len(stores)}.db")
        stores.append(store)
        recorder = StoreRecorder(store, net).attach()
        return (net, recorder), {}

    def run(net, recorder):
        net.run(for_s=3600.0)
        recorder.detach()  # flushes; every event is durable in the WAL
        return net.total_frames_sent()

    frames = benchmark.pedantic(run, setup=setup, rounds=15)
    events = stores[-1].appended
    for store in stores:
        store.close()
    assert frames > 0
    assert events > frames  # frames plus routes/markers all landed


def test_perf_stream_workload(benchmark):
    """Stream/flow plane throughput: 200 mixed flows on a BW500 mesh.

    Exercises the full connection stack per message — stream framing,
    sliding-window release, reliable singles with adaptive RTO, ACK
    bookkeeping — on a 4x4 grid sized so every flow completes.  Network
    construction and route convergence stay in setup; the measured
    region is the two simulated hours the workload runs for."""
    from repro.phy.modulation import Bandwidth, LoRaParams
    from repro.phy.regions import UNRESTRICTED
    from repro.workload.flows import FlowEngine, build_workload

    config = MesherConfig(
        lora=LoRaParams(bandwidth=Bandwidth.BW500),
        region=UNRESTRICTED,
        hello_period_s=120.0,
        route_timeout_s=7200.0,
        purge_period_s=900.0,
        send_queue_capacity=64,
        stream_window=2,
    )

    def setup():
        net = MeshNetwork.from_positions(
            grid_positions(4, 4, spacing_m=60.0),
            config=config,
            seed=9,
            trace_enabled=False,
        )
        assert net.run_until_converged(timeout_s=7200.0) is not None
        engine = FlowEngine(net)
        engine.add_flows(
            build_workload(
                "mixed", net.addresses, 200, seed=9,
                messages=3, payload_bytes=32,
                window_s=3600.0, interval_s=60.0,
            )
        )
        engine.start()
        return (net, engine), {}

    def run(net, engine):
        net.run(for_s=7200.0)
        return engine.summary()

    summary = benchmark.pedantic(run, setup=setup, rounds=3)
    assert summary.completed == 200
    assert summary.failed == 0


def test_perf_kernel_hotspot_attribution(benchmark):
    """Where the wall-clock actually goes: the profiler's hot-spot table.

    This is the baseline every future performance PR cites — optimise
    the handlers at the top of this table, re-run, and compare shares.
    """
    from repro.obs import KernelProfiler

    def run_profiled():
        net = MeshNetwork.from_positions(
            grid_positions(3, 3, spacing_m=100.0),
            config=BENCH_CONFIG,
            seed=1,
            trace_enabled=False,
        )
        profiler = KernelProfiler().attach(net.sim)
        net.run(for_s=3600.0)
        profiler.detach()
        return profiler

    profiler = benchmark.pedantic(run_profiled, rounds=1, iterations=1)
    print()
    print(profiler.format(limit=12))
    spots = profiler.table()
    assert spots, "a simulated hour must execute events"
    assert profiler.total_events == sum(s.events for s in spots)
    # The table is sorted hottest-first.
    totals = [s.total_s for s in spots]
    assert totals == sorted(totals, reverse=True)


def _hello_stream(n_sources=8, rows=62, generations=40):
    """A synthetic hello workload: ``n_sources`` neighbours re-advertise
    ``rows``-row tables, with metrics drifting every other generation so
    the stream mixes no-op merges with real updates (the convergence
    traffic shape)."""
    from repro.net.packets import RoutingEntry

    packets = []
    for gen in range(generations):
        for src in range(n_sources):
            base = 0x0100 + src * rows
            bump = 1 if gen % 4 == 2 else 0
            entries = tuple(
                RoutingEntry.trusted(base + i, 3 + bump + (i % 3), 0) for i in range(rows)
            )
            packets.append((2 + src, entries))
    return packets


def test_perf_hello_merge_throughput_scalar(benchmark):
    """DV merge throughput of the routing table (rows merged per second
    = ``rows_merged`` extra-info / measured time)."""
    from repro.net.routing_table import RoutingTable

    stream = _hello_stream()
    rows_merged = len(stream) * 62

    def setup():
        table = RoutingTable(1, route_timeout=1e9, max_metric=64)
        return (table,), {}

    def run(table):
        now = 0.0
        for src, entries in stream:
            now += 1.0
            table.process_hello(src, entries, now)
        return table.size

    size = benchmark.pedantic(run, setup=setup, rounds=20)
    benchmark.extra_info["rows_merged"] = rows_merged
    # 62 advertised rows plus the direct route per source.
    assert size == 8 * 63


def test_perf_medium_resolution_dense_cell(benchmark):
    """Reception resolution with 16 listeners per frame."""
    from repro.medium.channel import Medium
    from repro.phy.link import LinkBudget
    from repro.phy.modulation import LoRaParams
    from repro.phy.pathloss import LogDistancePathLoss
    from repro.radio.driver import Radio
    from repro.topology.placement import ring_positions

    def run_cell():
        sim = Simulator()
        medium = Medium(sim, LinkBudget(LogDistancePathLoss()))
        params = LoRaParams()
        radios = [
            Radio(sim, medium, i + 1, pos, params)
            for i, pos in enumerate(ring_positions(16, radius_m=50.0))
        ]
        for radio in radios:
            radio.start_receive()
        # 50 sequential frames, each resolved against 15 listeners.
        for i in range(50):
            radios[i % 16].transmit(bytes(32))
            sim.run(until=sim.now + 1.0)
        return sum(r.frames_received for r in radios)

    received = benchmark(run_cell)
    assert received == 50 * 15


def test_perf_data_plane_forwarding_line(benchmark):
    """The data plane end to end: 400 datagrams through a converged line.

    A 5-node BW500 line whose radios hear only their neighbours.  Node 1
    sends to node 3 every 0.5 s, so every datagram is classified three
    times: node 2 forwards the first hop while node 0 overhears it, and
    node 3 delivers the second hop while node 1 overhears it.  Unlike
    the dense-cell medium bench, this runs the mesher's receive path,
    ``classify`` and the forwarding enqueue for every heard frame.
    Building and converging the line stays in setup."""
    from repro.phy.modulation import Bandwidth, LoRaParams
    from repro.phy.regions import UNRESTRICTED
    from repro.topology.placement import line_positions

    datagrams = 400
    config = MesherConfig(
        lora=LoRaParams(bandwidth=Bandwidth.BW500),
        region=UNRESTRICTED,
        hello_period_s=120.0,
        route_timeout_s=7200.0,
        purge_period_s=900.0,
    )

    def setup():
        net = MeshNetwork.from_positions(
            line_positions(5, spacing_m=60.0), config=config, seed=1, trace_enabled=False
        )
        assert net.run_until_converged(timeout_s=3600.0) is not None
        src, relay, dst = net.nodes[1:4]
        assert src.table.next_hop(dst.address) == relay.address
        return (net,), {}

    def run(net):
        src, dst = net.nodes[1], net.nodes[3]
        send = partial(src.send_datagram, dst.address, bytes(24))
        for i in range(datagrams):
            net.sim.schedule(i * 0.5, send)
        net.run(for_s=datagrams * 0.5 + 5.0)
        return [(n.stats.data_delivered, n.stats.data_forwarded, n.stats.overheard)
                for n in net.nodes]

    counts = benchmark.pedantic(run, setup=setup, rounds=15)
    assert counts == [
        (0, 0, datagrams),
        (0, 0, datagrams),
        (0, datagrams, 0),
        (datagrams, 0, 0),
        (0, 0, 0),
    ]


def test_perf_invariant_audit(benchmark):
    """One full invariant audit of a converged 100-node mesh.

    A 10x10 BW500 grid whose radios reach only the four nearest nodes,
    so chains run up to 18 hops.  The mesh is built and converged once,
    outside the timed call; each round audits its 9,900 (node,
    destination) pairs with a fresh checker.  An audit that walked every
    chain from scratch again would take several times as long."""
    from repro.phy.modulation import Bandwidth, LoRaParams
    from repro.phy.regions import UNRESTRICTED
    from repro.verify import InvariantChecker

    config = MesherConfig(
        lora=LoRaParams(bandwidth=Bandwidth.BW500),
        region=UNRESTRICTED,
        hello_period_s=120.0,
        route_timeout_s=7200.0,
        purge_period_s=900.0,
        max_metric=64,
    )
    net = MeshNetwork.from_positions(
        grid_positions(10, 10, spacing_m=60.0), config=config, seed=1, trace_enabled=False
    )
    assert net.run_until_converged(timeout_s=7200.0) is not None

    violations = benchmark.pedantic(
        lambda: InvariantChecker(net, strict=False).audit(), rounds=50
    )
    assert violations == []
