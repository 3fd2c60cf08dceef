"""Golden pin for the baseline stacks' end-to-end numbers.

Each row is (PDR, frames, bytes, airtime s, mean latency s) of one
``run_protocol`` run on the EU868 defaults, the numbers behind the E5 and
E10 tables.  A change to the shared transmit pump or the substrate that
moves any of them shows here.
"""

import pytest

from repro.experiments.runner import Protocol, TrafficSpec, run_protocol
from repro.topology.placement import grid_positions

GRID = grid_positions(3, 3, spacing_m=100.0)
#: E5's scenario: both diagonals of the 3x3 grid.
E5_FLOWS = [
    TrafficSpec(src_index=0, dst_index=8, period_s=60.0),
    TrafficSpec(src_index=2, dst_index=6, period_s=60.0),
]
#: E10's "steady" regime: four crossing flows every minute.
STEADY_FLOWS = E5_FLOWS + [
    TrafficSpec(src_index=1, dst_index=7, period_s=60.0),
    TrafficSpec(src_index=3, dst_index=5, period_s=60.0),
]


def _row(result):
    latency = result.mean_latency_s
    return (
        round(result.pdr, 6),
        result.overhead.frames_sent,
        result.overhead.bytes_sent,
        round(result.overhead.airtime_s, 6),
        None if latency is None else round(latency, 6),
    )


@pytest.mark.parametrize(
    "protocol, expected",
    [
        (Protocol.FLOODING, (0.733333, 419, 13827, 30.141184, 1.090299)),
        (Protocol.STAR, (0.0, 60, 1920, 4.31616, None)),
        (Protocol.AODV, (1.0, 411, 10846, 27.036416, 2.515001)),
    ],
)
def test_e5_scenario(protocol, expected):
    result = run_protocol(protocol, GRID, E5_FLOWS, duration_s=1800.0, seed=9)
    assert _row(result) == expected


def test_e10_steady_aodv():
    result = run_protocol(
        Protocol.AODV, GRID, STEADY_FLOWS, duration_s=4 * 3600.0, seed=5, drain_s=300.0
    )
    assert _row(result) == (0.959459, 5271, 134383, 340.231936, 2.046851)
