#!/usr/bin/env python
"""Alternating paired runs of the repository benchmark on two checkouts.

A speedup counts only when it shows pair by pair.  This script runs
``perfbench/run.py`` on a parent checkout and on a changed one, one right
after the other: the parent first on odd pairs, the change first on even
pairs, so that host drift hits both sides alike.  For every end-to-end
metric it prints each side's median and quartiles (inclusive), the
pairs in which each side was lower, and whether the medians lie further
apart than the parent's interquartile range.  It flags any difference in
an instance fingerprint or in the failed count, and any run that printed
``CHECK FAILED`` or did not end ``"correct": true``: a change that only
makes the program faster moves none of them.

Usage::

    python benchmarks/pair_runs.py PARENT_DIR CHANGE_DIR \\
        --workload soak_bw500 --seed 1 --pairs 10 --json pairs.json

Each directory is the root of a checkout (a ``git clone`` or
``git archive`` of each commit).  The exit status is 1 when anything was
flagged.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: "  instance <i> wall <s> s at host speed x<k>, fingerprint {...}"
_INSTANCE = re.compile(r"^\s+instance (\d+) wall .* fingerprint (\{.*\})$")

SIDES = ("parent", "change")


def order(pair: int) -> Tuple[str, str]:
    """Which side runs first in pair ``pair`` (counted from 1)."""
    return SIDES if pair % 2 else SIDES[::-1]


def parse_run(text: str) -> dict:
    """The parts of one timed run's output that a comparison reads."""
    lines = text.strip().splitlines()
    final = json.loads(lines[-1])
    fingerprints = {}
    for line in lines:
        match = _INSTANCE.match(line)
        if match:
            fingerprints[int(match.group(1))] = json.loads(match.group(2))
    return {
        "metrics": {name: m["value"] for name, m in final["metrics"].items()},
        "units": {name: m["unit"] for name, m in final["metrics"].items()},
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "fingerprints": [fingerprints[i] for i in sorted(fingerprints)],
        "check_failed": [line.strip() for line in lines if "CHECK FAILED" in line],
    }


def run_once(checkout: Path, workload: str, seed: int) -> str:
    """One benchmark run from the root of ``checkout``, at the run length
    its own ``perfbench/run.py`` sets; its output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run failed (exit {proc.returncode})\n{proc.stderr}")
    return proc.stdout


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(pairs: Sequence[Dict[str, dict]]) -> dict:
    """Per-metric statistics and the flags over parsed pairs, each a
    ``{"parent": run, "change": run}`` dict of :func:`parse_run` results."""
    first = pairs[0]["parent"]
    metrics = {}
    for name in first["metrics"]:
        runs = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(runs[side]) for side in SIDES}
        iqr = stats["parent"][2] - stats["parent"][0]
        metrics[name] = {
            "unit": first["units"][name],
            "runs_parent": runs["parent"],
            "runs_change": runs["change"],
            "median_parent": stats["parent"][1],
            "median_change": stats["change"][1],
            "quartiles_parent": [stats["parent"][0], stats["parent"][2]],
            "quartiles_change": [stats["change"][0], stats["change"][2]],
            "iqr_parent": iqr,
            "pairs_lower_on_change": sum(c < p for p, c in zip(runs["parent"], runs["change"])),
            "pairs_lower_on_parent": sum(p < c for p, c in zip(runs["parent"], runs["change"])),
            "apart_by_more_than_parent_iqr": abs(stats["change"][1] - stats["parent"][1]) > iqr,
        }
    flags = []
    reference = first["fingerprints"]
    identical = True
    for index, pair in enumerate(pairs, start=1):
        for side in SIDES:
            run = pair[side]
            if run["fingerprints"] != reference:
                identical = False
                flags.append(f"pair {index} {side}: instance fingerprints differ from "
                             f"pair 1 parent's")
            if run["failed"] != first["failed"]:
                flags.append(f"pair {index} {side}: {run['failed']} failed operations, "
                             f"pair 1 parent {first['failed']}")
            if run["check_failed"] or not run["correct"]:
                flags.append(f"pair {index} {side}: not correct: {run['check_failed']}")
    return {
        "pairs": len(pairs),
        "order": "odd pairs (from 1) ran the parent first, even pairs the change first",
        "metrics": metrics,
        "failed": {side: [p[side]["failed"] for p in pairs] for side in SIDES},
        "attempted": first["attempted"],
        "instances": len(reference),
        "fingerprints_identical": identical,
        "flags": flags,
    }


def report(summary: dict) -> List[str]:
    """The comparison as printable lines."""
    n = summary["pairs"]
    lines = [f"{n} pairs; {summary['order']}",
             f"  {'metric':20s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
             f"  lower on change / parent"]
    for name, m in summary["metrics"].items():
        sides = [
            f"{m[f'median_{s}']:.6g} [{m[f'quartiles_{s}'][0]:.6g}, {m[f'quartiles_{s}'][1]:.6g}]"
            for s in SIDES
        ]
        apart = "  apart by > parent IQR" if m["apart_by_more_than_parent_iqr"] else ""
        lines.append(f"  {name:20s} {sides[0]:>32s} {sides[1]:>32s}"
                     f"  {m['pairs_lower_on_change']} / {m['pairs_lower_on_parent']} of {n}{apart}")
    lines.extend(f"  FLAG {flag}" for flag in summary["flags"])
    if not summary["flags"]:
        lines.append("  no flags: fingerprints, failed counts and checks equal on every run")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="write the record here")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent, "change": args.change}
    pairs = []
    for index in range(1, args.pairs + 1):
        pair = {}
        for side in order(index):
            pair[side] = parse_run(run_once(checkouts[side], args.workload, args.seed))
        print(f"pair {index}: wall_s parent {pair['parent']['metrics']['wall_s']:.3f}, "
              f"change {pair['change']['metrics']['wall_s']:.3f}", flush=True)
        pairs.append(pair)
    summary = compare(pairs)
    print(f"{args.workload} seed {args.seed}:")
    print("\n".join(report(summary)))
    if args.json is not None:
        record = {"workload": args.workload, "seed": args.seed,
                  "parent": str(args.parent), "change": str(args.change), **summary}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if summary["flags"] else 0


if __name__ == "__main__":
    sys.exit(main())
