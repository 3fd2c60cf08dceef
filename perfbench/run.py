#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload converge_n300 --seed 1 --seconds 36 --trace 0

A run pools several *instances* of the workload, each built from the
seed and its instance number alone and simulated in its own
single-threaded child process, one after another.  ``--seconds`` sets
how many instances a run makes.  With ``--trace 0`` the run prints every
end-to-end metric; with ``--trace 1`` it simulates instance 0 twice, once
plain and once with every layer wrapped (see ``tracer.py``), checks that
both produced the same fingerprint and counters, and prints the
per-layer split.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Run it from the root of a checkout; it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, percentile  # noqa: E402

#: Run seconds per instance: a run makes ``round(seconds / share)``
#: instances, never fewer than one.  On a 2-core x86 container an
#: instance takes 4.5-9, 2.3-4.5 and 4-8 s as the host's speed drifts.
#: The counts at 36 s (3, 8 and 6) are the fewest that keep the spread of
#: every pooled simulated metric over ten seeds inside its bound with a
#: few percent to spare; the soaks' latency p99 needs the most instances.
INSTANCE_SHARE_S = {"converge_n300": 12.0, "soak_bw500": 4.5, "soak_observed": 6.0}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "convergence_s": "s",
    "control_airtime_s": "s",
    "delivery_ratio": "ratio",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "airtime_per_msg_s": "s",
}

#: Child processes get at most this long; a run must end within 180 s.
CHILD_TIMEOUT_S = 170.0


def child_env() -> Dict[str, str]:
    """The caller's environment minus the program's own switches (so the
    defaults are what gets measured), with numeric libraries held to one
    thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, instance: int, traced: bool, deadline: float) -> dict:
    """One instance in a fresh process; returns its JSON result."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--instance", str(instance), "--traced", str(int(traced)),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"instance {instance} of {workload} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One instance, inside the child process
# ----------------------------------------------------------------------
def instance_main(workload: str, seed: int, instance: int, traced: bool) -> None:
    inputs = workloads.make_inputs(workload, seed, instance)
    tracer = None
    if traced:
        tracer = tracing.Tracer().install(inputs.config)
        # The benchmark's own taps, timed apart from the layers they sit in.
        tracer.span(workloads.DeliveryLog, "record", "perfbench.tap")
        tracer.span(workloads.RouteLog, "observe", "perfbench.tap")
    OUT.mkdir(exist_ok=True)
    store = OUT / f"store-{workload}-{seed}-{instance}-{os.getpid()}.db"
    speed = workloads.HostSpeed()
    try:
        harness, setups = workloads.timed_setup(
            inputs, store, repeats=1 if traced else workloads.SETUPS_PER_INSTANCE
        )
        before_run = speed.scale()
        outcome = workloads.execute(harness)
        after_run = speed.scale()
        result = workloads.evaluate(harness, outcome)
    finally:
        for suffix in ("", "-wal", "-shm"):
            Path(f"{store}{suffix}").unlink(missing_ok=True)
    result["setups_s"] = setups
    result["setup_scale"] = before_run
    result["wall_scale"] = (before_run + after_run) / 2.0
    result["peak_rss_mb"] = workloads.peak_rss_mb()
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, result["counters"], outcome.wall_s)
        tracer.log.save(OUT / f"spans-{workload}-{seed}.npz")
    print(json.dumps(result))


# ----------------------------------------------------------------------
# Pooling and reporting, in the parent
# ----------------------------------------------------------------------
def pool(results: List[dict]) -> Dict[str, float]:
    """End-to-end metrics over a run's instances: host times (scaled to the
    reference host speed) and memory as medians, simulated outcomes over
    every instance's operations."""
    latencies = [x for r in results for x in r["latencies_s"]]
    completed = sum(r["completed"] for r in results)
    return {
        "setup_s": statistics.median(
            t * r["setup_scale"] for r in results for t in r["setups_s"]
        ),
        "wall_s": statistics.median(r["wall_s"] * r["wall_scale"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "convergence_s": statistics.fmean(r["convergence_s"] or math.nan for r in results),
        "control_airtime_s": statistics.fmean(r["control_airtime_s"] for r in results),
        "delivery_ratio": completed / sum(r["attempted"] for r in results),
        "latency_p50_s": percentile(latencies, 50) if latencies else math.nan,
        "latency_p99_s": percentile(latencies, 99) if latencies else math.nan,
        "airtime_per_msg_s": sum(r["op_airtime_s"] for r in results) / max(completed, 1),
    }


def report(correct: bool, attempted: int, failed: int, metrics: Dict[str, float],
           units: Dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> None:
    count = max(1, round(seconds / INSTANCE_SHARE_S[workload]))
    results = [run_child(workload, seed, i, False, deadline) for i in range(count)]
    errors = [f"instance {i}: {e}" for i, r in enumerate(results) for e in r["errors"]]
    attempted = sum(r["attempted"] for r in results)
    failed = attempted - sum(r["completed"] for r in results)
    latency_samples = sum(len(r["latencies_s"]) for r in results)
    print(f"{workload} seed {seed}: {count} instances, {attempted} operations, "
          f"{failed} failed, {latency_samples} latency samples")
    for i, r in enumerate(results):
        print(f"  instance {i} wall {r['wall_s']:.3f} s at host speed x{r['wall_scale']:.2f}, "
              f"fingerprint {json.dumps(r['fingerprint'], sort_keys=True)}")
        if r["violations"]:
            print(f"  instance {i} invariant violations by class {json.dumps(r['violations'])}")
    for error in errors:
        print(f"  CHECK FAILED {error}")
    report(not errors, attempted, failed, pool(results), END_TO_END)


def traced_run(workload: str, seed: int, deadline: float) -> None:
    plain = run_child(workload, seed, 0, False, deadline)
    traced = run_child(workload, seed, 0, True, deadline)
    errors = plain["errors"] + traced["errors"]
    for key in ("fingerprint", "counters"):
        if plain[key] != traced[key]:
            diff = {k: (plain[key][k], traced[key].get(k))
                    for k in plain[key] if plain[key][k] != traced[key].get(k)}
            errors.append(f"traced run changed the {key}: {diff}")
    layers = dict(traced["layers"])
    layers["trace.overhead"] = (
        traced["wall_s"] * traced["wall_scale"] / (plain["wall_s"] * plain["wall_scale"]) - 1.0
    )
    wall = layers["trace.wall_s"]
    print(f"{workload} seed {seed}: traced instance 0, wall {wall:.3f} s "
          f"(untraced {plain['wall_s']:.3f} s), {layers['trace.spans']:.0f} spans")
    shares = sorted(((v, k) for k, v in layers.items() if k.endswith("self_s")), reverse=True)
    for value, name in shares:
        print(f"  {name:40s} {100.0 * value / wall:6.2f}% of traced wall")
    if plain["violations"]:
        print(f"  invariant violations by class {json.dumps(plain['violations'])}")
    for error in errors:
        print(f"  CHECK FAILED {error}")
    attempted = traced["attempted"]
    report(not errors, attempted, attempted - traced["completed"], layers, tracing.PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.instance is not None:
        instance_main(args.workload, args.seed, args.instance, bool(args.traced))
        return 0
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    if args.trace:
        traced_run(args.workload, args.seed, deadline)
    else:
        timed_run(args.workload, args.seed, args.seconds, deadline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
