"""The paired-runs script (``benchmarks/pair_runs.py``) on canned run
outputs: no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

FINGERPRINT = {"frames": 18380, "bytes": 635482, "convergence_s": 650.0, "delivered": 750,
               "routes_sha256": "4757"}


def load_script():
    spec = importlib.util.spec_from_file_location(
        "pair_runs", REPO / "benchmarks" / "pair_runs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timed_output(wall_s, *, failed=0, fingerprints=(FINGERPRINT, FINGERPRINT), check_failed=()):
    """What ``perfbench/run.py`` prints for a timed run of two instances."""
    lines = [f"soak_bw500 seed 1: {len(fingerprints)} instances, 250 operations, "
             f"{failed} failed, 240 latency samples"]
    for i, fingerprint in enumerate(fingerprints):
        lines.append(f"  instance {i} wall {wall_s:.3f} s at host speed x1.00, "
                     f"fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    lines.extend(f"  CHECK FAILED {error}" for error in check_failed)
    metrics = {"wall_s": (wall_s, "s"), "delivery_ratio": (1.0 - failed / 250, "ratio")}
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:40s} {value:14.6g} {unit}")
    lines.append(json.dumps({
        "correct": not check_failed,
        "attempted": 250,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return "\n".join(lines) + "\n"


def pairs_of(script, walls, **change_kwargs):
    return [
        {"parent": script.parse_run(timed_output(p)),
         "change": script.parse_run(timed_output(c, **change_kwargs))}
        for p, c in walls
    ]


def test_the_parent_runs_first_on_odd_pairs():
    script = load_script()
    assert [script.order(i) for i in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")
    ]


def test_parse_reads_metrics_fingerprints_and_failures():
    run = load_script().parse_run(timed_output(1.5, failed=2, check_failed=("instance 0: x",)))
    assert run["metrics"] == {"wall_s": 1.5, "delivery_ratio": pytest.approx(0.992)}
    assert run["units"]["wall_s"] == "s"
    assert run["fingerprints"] == [FINGERPRINT, FINGERPRINT]
    assert (run["attempted"], run["failed"], run["correct"]) == (250, 2, False)
    assert run["check_failed"] == ["CHECK FAILED instance 0: x"]


def test_medians_quartiles_and_lower_pairs_per_metric():
    script = load_script()
    walls = [(1.7, 1.4), (1.6, 1.5), (1.8, 1.3), (1.5, 1.6), (1.9, 1.2)]
    summary = script.compare(pairs_of(script, walls))
    wall = summary["metrics"]["wall_s"]
    assert wall["median_parent"] == pytest.approx(1.7)
    assert wall["median_change"] == pytest.approx(1.4)
    assert wall["quartiles_parent"] == pytest.approx([1.6, 1.8])
    assert wall["iqr_parent"] == pytest.approx(0.2)
    assert (wall["pairs_lower_on_change"], wall["pairs_lower_on_parent"]) == (4, 1)
    assert wall["apart_by_more_than_parent_iqr"]
    ratio = summary["metrics"]["delivery_ratio"]
    assert (ratio["pairs_lower_on_change"], ratio["pairs_lower_on_parent"]) == (0, 0)
    assert not ratio["apart_by_more_than_parent_iqr"]
    assert summary["fingerprints_identical"] and summary["flags"] == []
    assert "wall_s" in "\n".join(script.report(summary))


def test_a_moved_fingerprint_failed_count_or_check_is_flagged():
    script = load_script()
    walls = [(1.7, 1.4), (1.6, 1.5)]
    moved = dict(FINGERPRINT, frames=18381)
    summary = script.compare(pairs_of(script, walls, fingerprints=(FINGERPRINT, moved)))
    assert not summary["fingerprints_identical"]
    assert summary["flags"] == [
        f"pair {i} change: instance fingerprints differ from pair 1 parent's" for i in (1, 2)
    ]
    summary = script.compare(pairs_of(script, walls, failed=3))
    assert summary["fingerprints_identical"]
    assert summary["failed"] == {"parent": [0, 0], "change": [3, 3]}
    assert len(summary["flags"]) == 2 and "3 failed operations" in summary["flags"][0]
    summary = script.compare(pairs_of(script, walls, check_failed=("instance 1: moved",)))
    assert len(summary["flags"]) == 2 and "not correct" in summary["flags"][0]
    assert any(line.startswith("  FLAG") for line in script.report(summary))
