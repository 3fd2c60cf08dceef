"""Standalone E4 large-N point runner with progress logging.

The n=1000 point takes minutes of wall; running it inside pytest gives
no visibility and no partial result.  This script runs the identical
measurement (`measure_large` semantics: same placement, same
LARGE_N_CONFIG, same convergence loop granularity) but logs a progress
line per convergence check and writes the final row as JSON, so a long
run can be watched — and its trajectory kept — from outside.  The row
includes the process's peak resident set (``peak_rss_mb``, MiB).

Usage::

    PYTHONPATH=src python benchmarks/run_e4_large_point.py \
        --n 1000 --seed 5 --out e4_n1000.json
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_e4_scalability import LARGE_N_CONFIG, connected_placement_large
from repro.net.api import MeshNetwork


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--timeout-s", type=float, default=86400.0)
    parser.add_argument("--check-period-s", type=float, default=120.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    t0 = time.perf_counter()
    positions, stats = connected_placement_large(args.n, args.seed)
    print(
        f"placement: n={args.n} seed={args.seed} diameter={stats.diameter} "
        f"({time.perf_counter() - t0:.1f}s)",
        flush=True,
    )

    net = MeshNetwork.from_positions(
        positions, config=LARGE_N_CONFIG, seed=args.seed, trace_enabled=False
    )
    start = time.perf_counter()
    convergence = None
    sim_start = net.sim.now
    deadline = sim_start + args.timeout_s
    needed = args.n - 1
    while net.sim.now < deadline:
        net.sim.run(until=min(net.sim.now + args.check_period_s, deadline))
        if net.converged():
            convergence = net.sim.now - sim_start
            break
        sizes = sorted(node.table.size for node in net.nodes)
        print(
            f"t={net.sim.now:8.0f}s wall={time.perf_counter() - start:7.1f}s "
            f"frames={net.total_frames_sent():>9} "
            f"table min/med/max={sizes[0]}/{sizes[len(sizes) // 2]}/{sizes[-1]} "
            f"(need {needed})",
            flush=True,
        )
    wall_s = time.perf_counter() - start

    result = {
        "n": args.n,
        "seed": args.seed,
        "diameter": stats.diameter,
        "convergence_s": convergence,
        "wall_s": wall_s,
        "control_frames": net.total_frames_sent(),
        "control_bytes": net.total_bytes_sent(),
        "airtime_s": net.total_airtime_s(),
        # Peak resident set of this process (Linux reports ru_maxrss in KiB).
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(result, indent=2), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0 if convergence is not None else 1


if __name__ == "__main__":
    raise SystemExit(main())
