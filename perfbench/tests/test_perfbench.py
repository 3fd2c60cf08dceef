"""Tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from repro.net.config import MesherConfig  # noqa: E402
from repro.workload.flows import FlowSpec  # noqa: E402


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4];  root > c [7, 9];  d [20, 21] alone
    names = ["root", "a", "b", "c", "d"]
    name = np.array([0, 1, 2, 3, 4])
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 7.0, 20.0])
    end = np.array([10.0, 6.0, 4.0, 9.0, 21.0])
    calls, own = tracing.self_times(name, parent, start, end, len(names))
    assert calls.tolist() == [1, 1, 1, 1, 1]
    assert own.tolist() == pytest.approx([10 - 5 - 2, 5 - 2, 2, 2, 1])
    # Self times partition the top-level spans' time.
    assert own.sum() == pytest.approx(10 + 1)


def test_self_time_sums_per_name():
    name = np.array([0, 1, 1, 0])
    parent = np.array([-1, 0, 0, -1])
    start = np.array([0.0, 1.0, 3.0, 10.0])
    end = np.array([5.0, 2.0, 4.0, 12.0])
    calls, own = tracing.self_times(name, parent, start, end, 2)
    assert calls.tolist() == [2, 2]
    assert own.tolist() == pytest.approx([(5 - 2) + 2, 2])


def test_span_log_parents_work_to_the_event_reported_after_it():
    log = tracing.SpanLog()
    outer, inner = log.name_id("outer"), log.name_id("inner")
    top = log.begin(outer)  # outside Simulator.run: a root of its own
    log.finish(top)
    log.in_run = 1
    first = log.begin(outer)
    nested = log.begin(inner)
    log.finish(nested)
    log.finish(first)
    log.record("tx#7 end", None, 0.5)
    log.record("0x0001 pump", None, 0.1)  # an event with no wrapped calls
    spans = log.arrays()
    names = [log.names[i] for i in spans["name"]]
    assert names == ["outer", tracing.EVENT_TX_END, "outer", "inner", tracing.EVENT_PUMP]
    assert spans["parent"].tolist() == [-1, -1, 1, 2, -1]
    assert spans["end"][1] - spans["start"][1] == pytest.approx(0.5)


def test_event_labels_map_to_layers():
    assert tracing.event_span_name("tx#12 end") == tracing.EVENT_TX_END
    assert tracing.event_span_name("0x0031 pump") == tracing.EVENT_PUMP
    assert tracing.event_span_name("0x0031 duty wait") == tracing.EVENT_PUMP
    assert tracing.event_span_name("0x0031 cad wait") == tracing.EVENT_PUMP
    assert tracing.event_span_name("hello 0x0031") == tracing.EVENT_OTHER


# ----------------------------------------------------------------------
# Delivery ratio and latency against the plan
# ----------------------------------------------------------------------
def _spec(flow_id, *, messages=3, start_s=100.0, interval_s=0.0, src=1, dst=2):
    return FlowSpec(flow_id=flow_id, kind="chat" if interval_s else "bursty", src=src, dst=dst,
                    messages=messages, payload_bytes=32, start_s=start_s, interval_s=interval_s)


def test_latency_is_timed_from_when_each_message_was_due():
    log = workloads.DeliveryLog([_spec(0, interval_s=90.0), _spec(1)])
    log.flow_t0 = 1000.0
    # Flow 0 opened 30 s late: each paced message left 30 s after it was due.
    for k in range(3):
        due = 1000.0 + 100.0 + 90.0 * k
        log.record(2, 1, 0, due + 30.0, k, due + 31.0)
    # Flow 1 (bursty) is due at once; one message arrives.
    log.record(2, 1, 1, 1105.0, 0, 1107.0)
    assert log.errors == []
    assert log.latencies_s == pytest.approx([31.0, 31.0, 31.0, 7.0])
    assert (log.planned, log.count()) == (6, 4)


def test_delivery_ratio_counts_flows_that_never_opened():
    """Two flows planned, one never opened: half the messages, not all
    the sent ones, were delivered."""
    log = workloads.DeliveryLog([_spec(0), _spec(1)])
    log.flow_t0 = 1000.0
    for k in range(3):
        log.record(2, 1, 0, 1100.0, k, 1110.0 + k)
    instance = {
        "attempted": log.planned, "completed": log.count(), "latencies_s": log.latencies_s,
        "setups_s": [0.01], "setup_scale": 1.0, "wall_s": 1.0, "wall_scale": 1.0,
        "peak_rss_mb": 50.0, "convergence_s": 500.0,
        "control_airtime_s": 10.0, "op_airtime_s": 3.0,
    }
    pooled = run.pool([instance])
    assert pooled["delivery_ratio"] == pytest.approx(0.5)
    assert pooled["airtime_per_msg_s"] == pytest.approx(1.0)
    assert pooled["latency_p50_s"] == pytest.approx(11.0)


@pytest.mark.parametrize(
    "record, message",
    [
        ((2, 1, 9, 1100.0, 0, 1101.0), "unplanned flow"),
        ((3, 1, 0, 1100.0, 0, 1101.0), "delivered 1->3"),
        ((2, 1, 0, 1100.0, 1, 1101.0), "arrived as number 0"),
    ],
)
def test_delivery_checks_reject_wrong_messages(record, message):
    log = workloads.DeliveryLog([_spec(0)])
    log.record(*record)
    assert any(message in e for e in log.errors)


def test_delivery_checks_reject_repeats_and_extras():
    log = workloads.DeliveryLog([_spec(0, messages=2, interval_s=90.0)])
    log.record(2, 1, 0, 1100.0, 0, 1101.0)
    log.record(2, 1, 0, 1100.0, 1, 1102.0)  # same paced message again
    log.record(2, 1, 0, 1190.0, 2, 1191.0)  # beyond the plan
    assert any("repeated or out of order" in e for e in log.errors)
    assert any("more than 2 messages" in e for e in log.errors)


def test_host_times_are_scaled_to_the_reference_speed():
    instance = {
        "attempted": 2, "completed": 2, "latencies_s": [1.0, 2.0],
        "setups_s": [0.01, 0.03, 0.02], "setup_scale": 0.5, "wall_s": 4.0, "wall_scale": 0.5,
        "peak_rss_mb": 50.0, "convergence_s": 500.0, "control_airtime_s": 10.0,
        "op_airtime_s": 3.0,
    }
    fast = dict(instance, setup_scale=2.0, wall_s=1.0, wall_scale=2.0)
    pooled = run.pool([instance, fast, instance])
    assert pooled["wall_s"] == pytest.approx(2.0)
    assert pooled["setup_s"] == pytest.approx(0.015)
    scale = workloads.HostSpeed().scale()
    assert 0 < scale < math.inf


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert workloads.percentile(values, 50) == pytest.approx(2.5)
    assert workloads.percentile(values, 100) == 4.0
    assert workloads.percentile(values, 99) == pytest.approx(np.percentile(values, 99))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_inputs_come_from_the_seed_alone():
    a = workloads.make_inputs("soak_bw500", 5, 1)
    b = workloads.make_inputs("soak_bw500", 5, 1)
    c = workloads.make_inputs("soak_bw500", 6, 1)
    assert a.flows == b.flows and a.positions == b.positions
    assert a.flows != c.flows
    observed = workloads.make_inputs("soak_observed", 5, 1)
    assert observed.flows == a.flows and observed.observed and not a.observed


def test_mixed_flows_follow_the_plan():
    addresses = list(range(1, 26))
    flows = workloads.mixed_flows(random.Random(3), addresses, 100, window_s=600.0)
    assert [f.flow_id for f in flows] == list(range(100))
    kinds = [f.kind for f in flows]
    assert (kinds.count("bursty"), kinds.count("ota"), kinds.count("chat")) == (33, 33, 34)
    assert all(0.0 <= f.start_s <= 600.0 and f.src != f.dst for f in flows)
    assert all((f.interval_s > 0) == (f.kind == "chat") for f in flows)


def test_placement_is_connected_on_the_link_disk():
    positions = workloads.connected_placement(random.Random(1), 60, 300.0, 68.0)
    assert len(positions) == 60
    assert workloads._connected(positions, 68.0)
    assert not workloads._connected([(0.0, 0.0), (100.0, 0.0)], 68.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert spec["paths"] == ["perfbench"]


# ----------------------------------------------------------------------
# The traced run only observes
# ----------------------------------------------------------------------
def _tiny(observed: bool) -> workloads.Inputs:
    rng = random.Random("tiny")
    positions = workloads.grid(3, 3, 60.0)
    flows = workloads.mixed_flows(rng, list(range(1, 10)), 12, window_s=600.0)
    config = MesherConfig(**workloads._BW500, stream_window=2)
    return workloads.Inputs("tiny", 7, positions, config, flows, flow_phase_s=1200.0,
                            observed=observed)


def _run(inputs, store):
    harness = workloads.build(inputs, store)
    outcome = workloads.execute(harness)
    return workloads.evaluate(harness, outcome)


@pytest.mark.parametrize("observed", [False, True])
def test_traced_run_leaves_the_fingerprint_unchanged(tmp_path, observed):
    inputs = _tiny(observed)
    plain = _run(inputs, tmp_path / "plain.db")
    tracer = tracing.Tracer().install(inputs.config)
    try:
        tracer.span(workloads.DeliveryLog, "record", "perfbench.tap")
        traced = _run(inputs, tmp_path / "traced.db")
        layers = tracing.layer_metrics(tracer, traced["counters"], traced["wall_s"])
    finally:
        tracer.uninstall()
    assert plain["errors"] == [] and traced["errors"] == []
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["counters"] == plain["counters"]
    assert plain["completed"] > 0
    assert set(layers) == set(tracing.PER_LAYER)
    assert layers["radio.deliver_calls"] > 0 and layers["net.routing.merge_calls"] > 0
    assert (layers["obs.store.self_s"] > 0) == observed
    assert (layers["verify.audits"] > 0) == observed
    assert layers["trace.spans"] > 0
    assert not math.isnan(layers["trace.residual_s"])


def test_converge_checks_every_ordered_pair(tmp_path):
    inputs = workloads.Inputs("tiny", 3, workloads.grid(3, 2, 60.0),
                              MesherConfig(**workloads._BW500))
    result = _run(inputs, tmp_path / "unused.db")
    assert result["errors"] == []
    assert result["attempted"] == result["completed"] == 6 * 5
    assert len(result["latencies_s"]) == 30
    assert max(result["latencies_s"]) <= result["convergence_s"]
