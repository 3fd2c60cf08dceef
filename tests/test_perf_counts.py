"""The benchmark's work-count gate (``benchmarks/check_perf_counts.py``)
and its committed reference."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
REFERENCE = json.loads((REPO / "benchmarks" / "perf_counts.json").read_text())


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_perf_counts", REPO / "benchmarks" / "check_perf_counts.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_output(path, workload, counts):
    """What a traced run prints: its header, then the JSON line."""
    metrics = {name: {"value": value, "unit": "count"} for name, value in counts.items()}
    metrics["trace.wall_s"] = {"value": 1.0, "unit": "s"}
    path.write_text(
        f"{workload} seed 1: traced instance 0, wall 1.000 s (untraced 1.000 s), 9 spans\n"
        + json.dumps({"correct": True, "attempted": 0, "failed": 0, "metrics": metrics})
        + "\n"
    )
    return path


def test_reference_holds_every_count_metric_of_every_workload():
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    assert len(counts) == 32
    assert set(REFERENCE) == {f"{w['name']} seed 1" for w in SPEC["workloads"]}
    for reference in REFERENCE.values():
        assert set(reference) == counts


def test_gate_passes_equal_counts_and_names_a_moved_one(tmp_path, capsys):
    gate = load_gate()
    counts = dict(REFERENCE["soak_observed seed 1"])
    run = traced_output(tmp_path / "equal.txt", "soak_observed", counts)
    assert gate.main(["check", str(run)]) == 0
    counts["trace.spans"] += 1
    run = traced_output(tmp_path / "moved.txt", "soak_observed", counts)
    assert gate.main(["check", str(run)]) == 1
    assert "FAIL soak_observed seed 1: trace.spans" in capsys.readouterr().out
