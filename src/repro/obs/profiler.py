"""Kernel profiler: wall-clock attribution per event handler.

Attach a :class:`KernelProfiler` to a :class:`~repro.sim.kernel.Simulator`
and every executed event is timed with ``time.perf_counter`` and binned
by its *handler group* — the event label with run-specific digits
normalised away (``"0001 pump"`` and ``"0007 pump"`` both become
``"N pump"``), falling back to the callback's qualified name for
unlabelled events.  The result is the hot-spot table every perf PR must
cite as its baseline: which handlers the simulator actually spends time
in, how often they fire, and their mean/worst cost.

The hook costs two ``perf_counter`` calls per event while attached and
nothing at all when no profiler is set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.tables import format_table
from repro.sim.kernel import Simulator

_DIGITS = re.compile(r"\d+")


def normalize_label(label: str) -> str:
    """Collapse run-specific digits so per-node labels share one bin."""
    return _DIGITS.sub("N", label)


def callback_name(callback: Callable[[], None]) -> str:
    """Best-effort handler name for an unlabelled event."""
    qualname = getattr(callback, "__qualname__", None)
    if qualname:
        return qualname
    bound = getattr(callback, "__func__", None)
    if bound is not None:
        return getattr(bound, "__qualname__", type(callback).__name__)
    return type(callback).__name__


@dataclass(frozen=True)
class HotSpot:
    """Aggregated cost of one handler group."""

    name: str
    events: int
    total_s: float
    max_s: float

    @property
    def mean_us(self) -> float:
        """Mean handler cost in microseconds."""
        return (self.total_s / self.events) * 1e6 if self.events else 0.0


class _Bin:
    __slots__ = ("events", "total_s", "max_s")

    def __init__(self) -> None:
        self.events = 0
        self.total_s = 0.0
        self.max_s = 0.0


class KernelProfiler:
    """Accumulates per-handler wall-clock cost from the kernel hook."""

    def __init__(self, *, groupby: Callable[[str], str] = normalize_label) -> None:
        self._groupby = groupby
        self._bins: Dict[str, _Bin] = {}
        self._group_cache: Dict[str, str] = {}
        self.total_events = 0
        self.total_s = 0.0
        self._sim: Optional[Simulator] = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, sim: Simulator) -> "KernelProfiler":
        """Install this profiler as the kernel's event hook."""
        if sim.profiler is not None and sim.profiler is not self:
            raise RuntimeError("simulator already has a profiler attached")
        sim.profiler = self
        self._sim = sim
        return self

    def detach(self) -> None:
        """Remove the hook (accumulated data remains)."""
        if self._sim is not None and self._sim.profiler is self:
            self._sim.profiler = None
        self._sim = None

    # ------------------------------------------------------------------
    # Recording (called by the kernel)
    # ------------------------------------------------------------------
    def record(self, label: str, callback: Callable[[], None], elapsed_s: float) -> None:
        """Account one executed event. The kernel calls this."""
        key = label or callback_name(callback)
        group = self._group_cache.get(key)
        if group is None:
            group = self._groupby(key)
            self._group_cache[key] = group
        bin_ = self._bins.get(group)
        if bin_ is None:
            bin_ = self._bins[group] = _Bin()
        bin_.events += 1
        bin_.total_s += elapsed_s
        if elapsed_s > bin_.max_s:
            bin_.max_s = elapsed_s
        self.total_events += 1
        self.total_s += elapsed_s

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def table(self) -> List[HotSpot]:
        """Hot spots sorted by total wall-clock cost, hottest first."""
        spots = [
            HotSpot(name=name, events=b.events, total_s=b.total_s, max_s=b.max_s)
            for name, b in self._bins.items()
        ]
        spots.sort(key=lambda s: (-s.total_s, s.name))
        return spots

    def format(self, *, limit: int = 20) -> str:
        """Render the hot-spot table for the CLI / bench output."""
        spots = self.table()
        rows = [
            (
                spot.name,
                spot.events,
                f"{spot.total_s * 1000:.2f}",
                f"{spot.mean_us:.1f}",
                f"{spot.max_s * 1e6:.1f}",
                f"{(spot.total_s / self.total_s * 100) if self.total_s else 0.0:.1f}%",
            )
            for spot in spots[:limit]
        ]
        title = (
            f"Kernel hot spots — {self.total_events} events, "
            f"{self.total_s * 1000:.1f} ms total handler time"
        )
        table = format_table(
            ["handler", "events", "total (ms)", "mean (us)", "max (us)", "share"],
            rows,
            title=title,
        )
        if len(spots) > limit:
            table += f"\n... {len(spots) - limit} more handler groups"
        return table

    def reset(self) -> None:
        """Drop all accumulated data (stays attached)."""
        self._bins.clear()
        self._group_cache.clear()
        self.total_events = 0
        self.total_s = 0.0

    def __repr__(self) -> str:
        return (
            f"KernelProfiler(groups={len(self._bins)}, events={self.total_events}, "
            f"total_s={self.total_s:.6f})"
        )
