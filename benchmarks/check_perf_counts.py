#!/usr/bin/env python
"""Work-count gate for the repository benchmark's traced runs.

A traced run of a workload (``perfbench/run.py --trace 1``) ends with one
JSON line whose metrics include every layer's work counters, the ones in
unit ``count``: kernel events, frames, link evaluations, decodes, merged
rows, store events, audits, spans.  They depend only on the program, the
workload and the seed, so unlike wall time they can be compared exactly
on any host.  This script compares them with the reference committed in
``benchmarks/perf_counts.json`` and fails on any difference.

Usage::

    python3 perfbench/run.py --workload soak_observed --seed 1 --trace 1 > trace.txt
    python benchmarks/check_perf_counts.py check trace.txt

    # a change that moves a count on purpose re-records it (and says why)
    python benchmarks/check_perf_counts.py record trace.txt

The workload and seed are read from the run's first line.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, Tuple

REFERENCE = Path(__file__).resolve().parent / "perf_counts.json"

#: First line of a traced run: "<workload> seed <seed>: traced instance 0, ...".
_HEADER = re.compile(r"^(\S+) seed (-?\d+): traced instance 0")


def read_run(path: Path) -> Tuple[str, int, Dict[str, float]]:
    """(workload, seed, count metrics) of one traced run's output."""
    lines = path.read_text().strip().splitlines()
    header = next((m for m in map(_HEADER.match, lines) if m), None)
    if header is None:
        raise SystemExit(f"{path}: not the output of a traced run (--trace 1)")
    metrics = json.loads(lines[-1])["metrics"]
    counts = {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}
    return header.group(1), int(header.group(2)), counts


def compare(reference: Dict[str, float], counts: Dict[str, float]) -> list:
    """One line per count that differs from, or is missing in, either side."""
    return [
        f"{name}: reference {reference.get(name)}, run {counts.get(name)}"
        for name in sorted(set(reference) | set(counts))
        if reference.get(name) != counts.get(name)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("check", "record"))
    parser.add_argument("run", type=Path, help="saved output of a traced run")
    args = parser.parse_args(argv)

    workload, seed, counts = read_run(args.run)
    document = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    key = f"{workload} seed {seed}"
    if args.mode == "record":
        document[key] = counts
        REFERENCE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(counts)} counts for {key}")
        return 0
    if key not in document:
        print(f"FAIL {key}: no reference in {REFERENCE}")
        return 1
    moved = compare(document[key], counts)
    for line in moved:
        print(f"FAIL {key}: {line}")
    if not moved:
        print(f"OK {key}: {len(counts)} counts equal the reference")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
