"""E4 — Scalability of distance-vector dissemination.

Paper artifact: LoRaMesher targets networks of "tiny IoT nodes"; this
bench characterises how convergence time and control overhead grow with
network size on random connected placements.

Expected shape: convergence time grows with network diameter (roughly
diameter x hello period), and control bytes grow superlinearly in N
(every node advertises every other node).
"""

import random
import time

import pytest

from benchmarks.conftest import BENCH_CONFIG, BENCH_WORKERS
from repro.experiments.report import print_table
from repro.experiments.sweep import run_parallel
from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.phy.link import LinkBudget
from repro.phy.modulation import Bandwidth, LoRaParams
from repro.phy.pathloss import LogDistancePathLoss
from repro.phy.regions import UNRESTRICTED
from repro.topology.graphs import connectivity_graph, graph_stats
from repro.topology.placement import random_positions

#: Profile for the 100..1000-node points.  The default bench profile
#: (EU868, BW125) cannot scale there: a 1000-entry table beacons as 17
#: frames per hello, which the 1 % duty cycle throttles into uselessness
#: and 0.4 s BW125 frames saturate the channel outright.  BW500 cuts
#: time-on-air 4x, UNRESTRICTED lifts the regulatory throttle, and
#: ``max_metric=64`` admits the 35+-hop diameters these sparse
#: placements produce (the default 16 would make full convergence
#: impossible, silently).
LARGE_N_CONFIG = MesherConfig(
    lora=LoRaParams(bandwidth=Bandwidth.BW500),
    region=UNRESTRICTED,
    hello_period_s=120.0,
    route_timeout_s=7200.0,
    purge_period_s=900.0,
    max_metric=64,
    send_queue_capacity=64,
)

def _connected_placement(n: int, seed: int, config, side_scale: float):
    budget = LinkBudget(LogDistancePathLoss())
    rng = random.Random(seed)
    side = side_scale * max(2.0, (n / 2.0) ** 0.5)
    for attempt in range(50):
        # The attempt budget scales with n: rejection sampling near the
        # packing density needs ~constant draws *per node*, so a fixed
        # total cap (the default 10k is fine up to n=1000) starves
        # larger placements.
        # The cap never alters the draw sequence, so placements for
        # small n are unchanged.
        positions = random_positions(
            n,
            width_m=side,
            height_m=side,
            rng=rng,
            min_separation_m=30.0,
            max_attempts=max(10_000, 20 * n),
        )
        graph = connectivity_graph(positions, budget, config.lora)
        stats = graph_stats(graph)
        if stats.connected:
            return positions, stats
    raise RuntimeError(f"no connected {n}-node placement found")


def connected_placement(n: int, seed: int):
    """A random placement that is guaranteed radio-connected."""
    return _connected_placement(n, seed, BENCH_CONFIG, side_scale=110.0)


def connected_placement_large(n: int, seed: int):
    """Like :func:`connected_placement` but scaled to BW500's shorter
    range (70 m vs 137 m), keeping mean degree near the connectivity
    threshold — the sparsest (and therefore cheapest) placements that
    still converge."""
    return _connected_placement(n, seed, LARGE_N_CONFIG, side_scale=66.0)


def measure(n: int, seed: int):
    positions, stats = connected_placement(n, seed)
    net = MeshNetwork.from_positions(positions, config=BENCH_CONFIG, seed=seed, trace_enabled=False)
    convergence = net.run_until_converged(timeout_s=7200.0, check_period_s=10.0)
    return {
        "n": n,
        "diameter": stats.diameter,
        "convergence_s": convergence,
        "control_frames": net.total_frames_sent(),
        "control_bytes": net.total_bytes_sent(),
        "airtime_s": net.total_airtime_s(),
    }


def measure_large(n: int, seed: int):
    """One large-N point under :data:`LARGE_N_CONFIG`, with wall-clock."""
    positions, stats = connected_placement_large(n, seed)
    net = MeshNetwork.from_positions(
        positions, config=LARGE_N_CONFIG, seed=seed, trace_enabled=False
    )
    start = time.perf_counter()
    convergence = net.run_until_converged(timeout_s=86400.0, check_period_s=120.0)
    wall_s = time.perf_counter() - start
    return {
        "n": n,
        "diameter": stats.diameter,
        "convergence_s": convergence,
        "wall_s": wall_s,
        "control_frames": net.total_frames_sent(),
        "control_bytes": net.total_bytes_sent(),
        "airtime_s": net.total_airtime_s(),
    }


def measure_large_sharded(
    n: int,
    seed: int,
    *,
    shards: int,
    workers: int,
    window_s: float = 5.0,
):
    """One large-N point through the sharded runner (same placement and
    convergence cadence as :func:`measure_large`).  ``window_s=5`` is the
    measured operating point where windowed visibility keeps routing
    behaviour at serial parity (see ``check_shard_fingerprints.py``)."""
    from repro.sim.shard import run_sharded

    positions, stats = connected_placement_large(n, seed)
    start = time.perf_counter()
    result = run_sharded(
        positions,
        shards=shards,
        workers=workers,
        config=LARGE_N_CONFIG,
        seed=seed,
        window_s=window_s,
        converge_timeout_s=86400.0,
        check_period_s=120.0,
    )
    wall_s = time.perf_counter() - start
    return {
        "n": n,
        "diameter": stats.diameter,
        "convergence_s": result.convergence_s,
        "wall_s": wall_s,
        "control_frames": result.frames,
        "control_bytes": result.bytes,
        "airtime_s": result.airtime_s,
        "boundary_exports": result.boundary_exports,
        "load_imbalance": result.load_imbalance(),
        "shard_busy_s": [round(s.busy_s, 2) for s in result.stats],
    }


def measure_point(n: int):
    """Module-level fixed-seed point so the sweep can run in worker
    processes (``REPRO_BENCH_WORKERS``)."""
    return measure(n, seed=5)


def test_e4_convergence_vs_network_size(benchmark):
    sizes = (2, 4, 8, 12, 16, 24)
    results = benchmark.pedantic(
        lambda: run_parallel(sizes, measure_point, workers=BENCH_WORKERS),
        rounds=1,
        iterations=1,
    )
    rows = [
        (
            r["n"],
            r["diameter"],
            f"{r['convergence_s']:.0f}" if r["convergence_s"] is not None else "timeout",
            r["control_frames"],
            r["control_bytes"],
            f"{r['airtime_s']:.2f}",
        )
        for r in results
    ]
    print_table(
        ["nodes", "diameter", "convergence (s)", "hello frames", "hello bytes", "airtime (s)"],
        rows,
        title="E4: cold-start convergence vs network size (random connected placements)",
    )

    # Shape: everything converged.
    assert all(r["convergence_s"] is not None for r in results)
    # Control bytes grow superlinearly with N (table rows scale with N^2
    # across the whole network).
    small, large = results[1], results[-1]
    bytes_ratio = large["control_bytes"] / max(small["control_bytes"], 1)
    n_ratio = large["n"] / small["n"]
    assert bytes_ratio > n_ratio, (
        f"control bytes grew x{bytes_ratio:.1f} for x{n_ratio:.1f} nodes"
    )
    # Convergence bounded by a few hello periods times the diameter.
    for r in results:
        if r["diameter"] > 0:
            assert r["convergence_s"] < (r["diameter"] + 4) * 2 * BENCH_CONFIG.hello_period_s


def _check_large_point(r):
    print_table(
        ["nodes", "diameter", "convergence (s)", "wall (s)", "hello frames", "hello bytes"],
        [
            (
                r["n"],
                r["diameter"],
                f"{r['convergence_s']:.0f}" if r["convergence_s"] is not None else "timeout",
                f"{r['wall_s']:.1f}",
                r["control_frames"],
                r["control_bytes"],
            )
        ],
        title=f"E4 large-N: {r['n']} nodes under LARGE_N_CONFIG",
    )
    assert r["convergence_s"] is not None, "large-N placement failed to converge"
    # Information crosses a couple of hops per hello period, so full
    # convergence lands within a few diameters' worth of periods.
    assert r["convergence_s"] < (r["diameter"] + 4) * 2 * LARGE_N_CONFIG.hello_period_s


def test_e4_large_n_100(benchmark):
    result = benchmark.pedantic(lambda: measure_large(100, seed=5), rounds=1, iterations=1)
    _check_large_point(result)


def test_e4_large_n_300_smoke(benchmark):
    """Perf-smoke scale point: large enough that DV merges of full
    62-row hello frames dominate the routing work, small enough for
    every CI run.  Guarded by the perf regression gate against
    BENCH_perf_baseline.json."""
    result = benchmark.pedantic(lambda: measure_large(300, seed=5), rounds=1, iterations=1)
    _check_large_point(result)


def test_e4_sharded_n300_smoke(benchmark):
    """Perf-smoke point for the sharded runner: the n=300 workload split
    into two strips with two worker processes.  Guards the whole
    shard-coordination path (partitioning, window barriers, ghost
    exchange over pipes, merged convergence checks) against wall-clock
    regressions alongside the serial n=300 point."""
    result = benchmark.pedantic(
        lambda: measure_large_sharded(300, seed=5, shards=2, workers=2),
        rounds=1,
        iterations=1,
    )
    print_table(
        ["nodes", "diameter", "convergence (s)", "wall (s)", "frames", "boundary exports", "imbalance"],
        [
            (
                result["n"],
                result["diameter"],
                f"{result['convergence_s']:.0f}",
                f"{result['wall_s']:.1f}",
                result["control_frames"],
                result["boundary_exports"],
                f"{result['load_imbalance']:.2f}",
            )
        ],
        title="E4 sharded smoke: 300 nodes, 2 strips x 2 workers",
    )
    assert result["convergence_s"] is not None, "sharded n=300 failed to converge"
    assert result["boundary_exports"] > 0, "strips never exchanged a boundary frame"
    assert result["convergence_s"] < (result["diameter"] + 4) * 2 * LARGE_N_CONFIG.hello_period_s


@pytest.mark.slow
def test_e4_large_n_300(benchmark):
    result = benchmark.pedantic(lambda: measure_large(300, seed=5), rounds=1, iterations=1)
    _check_large_point(result)


@pytest.mark.slow
def test_e4_large_n_1000(benchmark):
    """The headline scale point: 1000 nodes, random connected placement,
    cold start to full convergence.  Infeasible before the batch PHY
    engine; the wall-clock guard is deliberately loose (CI hardware
    varies) — BENCH_perf.json records the measured numbers."""
    result = benchmark.pedantic(lambda: measure_large(1000, seed=5), rounds=1, iterations=1)
    _check_large_point(result)
    assert result["wall_s"] < 1800.0
