"""Periodic time-series sampling of a metrics registry.

A :class:`TimeSeriesSampler` is a sim-kernel process: every ``period_s``
simulated seconds it snapshots the registry and appends one
:class:`SamplePoint` to an in-memory ring.  That turns end-of-run scalars
(coverage, queue depth, duty cycle, PDR) into plottable trajectories —
the substrate convergence studies and regression tracking need.

Histograms are flattened to ``<name>_count`` and ``<name>_sum`` per
point; counters and gauges keep their flat ``name{labels}`` key.  The
ring exports to CSV (one column per key) and JSONL (one point per line),
and :meth:`to_dict` embeds straight into benchmark JSON documents.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import PeriodicTimer, Simulator
from repro.sim.taps import Tap, tap


@dataclass(frozen=True)
class SamplePoint:
    """One sampling instant: simulated time plus every flattened value."""

    time_s: float
    values: Dict[str, float]


def _flatten(registry: MetricsRegistry) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for sample in registry.snapshot():
        if sample.kind == "histogram":
            values[f"{sample.key}_count"] = sample.value
            values[f"{sample.key}_sum"] = sample.sum
        else:
            values[sample.key] = sample.value
    return values


class TimeSeriesSampler:
    """Snapshots a registry every ``period_s`` simulated seconds.

    ``capacity`` bounds the ring (oldest points are evicted; the
    ``points_dropped`` counter records how many).  The first sample is
    taken at ``t + period_s``; call :meth:`sample_now` to record an
    explicit point (e.g. at t=0 or at run end).
    """

    def __init__(
        self,
        sim: Simulator,
        registry: MetricsRegistry,
        *,
        period_s: float = 60.0,
        capacity: Optional[int] = None,
        autostart: bool = True,
    ) -> None:
        if period_s <= 0:
            raise ValueError(f"period_s must be positive, got {period_s!r}")
        self._sim = sim
        self.registry = registry
        self.period_s = period_s
        self.capacity = capacity
        self.points_dropped = 0
        self._ring: Deque[SamplePoint] = deque(maxlen=capacity)
        self._timer: Optional[PeriodicTimer] = None
        #: Observer hook, called with every new point; add listeners
        #: with :meth:`subscribe`.
        self.on_sample: Optional[Callable[[SamplePoint], None]] = None
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic sampling timer (idempotent)."""
        if self._timer is None or not self._timer.active:
            self._timer = self._sim.periodic(
                self.period_s, self.sample_now, label="obs sampler"
            )

    def stop(self) -> None:
        """Stop sampling; recorded points remain."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def sample_now(self) -> SamplePoint:
        """Record one point at the current simulated instant."""
        point = SamplePoint(time_s=self._sim.now, values=_flatten(self.registry))
        if self.capacity is not None and len(self._ring) == self.capacity:
            self.points_dropped += 1
        self._ring.append(point)
        if self.on_sample is not None:
            self.on_sample(point)
        return point

    def subscribe(self, listener: Callable[[SamplePoint], None]) -> Tap:
        """Call ``listener`` with every new :class:`SamplePoint` until the
        returned tap is removed.

        This is how the event store streams samples out of the ring as
        they happen instead of re-reading it at run end; listeners see
        even points the capacity-bounded ring later evicts.
        """
        return tap(self, "on_sample", listener)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def points(self) -> List[SamplePoint]:
        """All retained points, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def keys(self) -> List[str]:
        """Every flattened metric key seen across retained points."""
        seen: Dict[str, None] = {}
        for point in self._ring:
            for key in point.values:
                seen.setdefault(key)
        return list(seen)

    def series(self, key: str) -> List[Tuple[float, float]]:
        """One metric's trajectory as ``[(t, value), ...]``."""
        return [
            (p.time_s, p.values[key]) for p in self._ring if key in p.values
        ]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (embedded in benchmark documents)."""
        return {
            "period_s": self.period_s,
            "points_dropped": self.points_dropped,
            "samples": [
                {"t": p.time_s, "values": dict(p.values)} for p in self._ring
            ],
        }

    def export_jsonl(self, path: Union[str, Path]) -> Path:
        """One JSON object per sample point; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for point in self._ring:
                handle.write(
                    json.dumps({"t": point.time_s, "values": point.values}, sort_keys=True)
                    + "\n"
                )
        return path

    def export_csv(self, path: Union[str, Path]) -> Path:
        """Wide CSV: a ``time_s`` column plus one column per metric key."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = self.keys()
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time_s", *keys])
            for point in self._ring:
                writer.writerow(
                    [point.time_s, *[point.values.get(k, "") for k in keys]]
                )
        return path

    def __repr__(self) -> str:
        return (
            f"TimeSeriesSampler(period_s={self.period_s}, points={len(self._ring)}, "
            f"dropped={self.points_dropped})"
        )


# ----------------------------------------------------------------------
# Reload
# ----------------------------------------------------------------------
def load_timeseries_jsonl(path: Union[str, Path]) -> List[SamplePoint]:
    """Reload :meth:`TimeSeriesSampler.export_jsonl` output.

    The reconstructed points compare equal to the originals even when
    series keys appear mid-run (each line carries exactly the keys its
    point had) — the loss-free round trip the event store's import
    bridge relies on.
    """
    points: List[SamplePoint] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        points.append(
            SamplePoint(
                time_s=float(record["t"]),
                values={k: float(v) for k, v in record["values"].items()},
            )
        )
    return points


def load_timeseries_csv(path: Union[str, Path]) -> List[SamplePoint]:
    """Reload :meth:`TimeSeriesSampler.export_csv` output.

    The wide CSV pads ragged series (keys that appeared mid-run) with
    empty cells; those cells are dropped on reload, restoring each
    point's original key set.
    """
    points: List[SamplePoint] = []
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return points
        keys = header[1:]
        for row in reader:
            values = {
                key: float(cell) for key, cell in zip(keys, row[1:]) if cell != ""
            }
            points.append(SamplePoint(time_s=float(row[0]), values=values))
    return points
