"""Trace event records and the recorder."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.sim.taps import Tap, tap


class EventKind(enum.Enum):
    """Everything the protocol stack reports to the trace."""

    # Link layer
    FRAME_SENT = "frame_sent"
    FRAME_RECEIVED = "frame_received"
    FRAME_CRC_FAILED = "frame_crc_failed"
    FRAME_DECODE_FAILED = "frame_decode_failed"

    # Routing
    HELLO_SENT = "hello_sent"
    HELLO_RECEIVED = "hello_received"
    ROUTE_ADDED = "route_added"
    ROUTE_UPDATED = "route_updated"
    ROUTE_REMOVED = "route_removed"

    # Data plane
    DATA_ORIGINATED = "data_originated"
    DATA_FORWARDED = "data_forwarded"
    DATA_DELIVERED = "data_delivered"
    DATA_NO_ROUTE = "data_no_route"
    QUEUE_DROP = "queue_drop"

    # Reliable transport
    STREAM_STARTED = "stream_started"
    STREAM_COMPLETED = "stream_completed"
    STREAM_FAILED = "stream_failed"
    FRAGMENT_SENT = "fragment_sent"
    FRAGMENT_RETRANSMITTED = "fragment_retransmitted"
    LOST_SENT = "lost_sent"
    ACK_SENT = "ack_sent"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timestamped record."""

    time: float
    node: int
    kind: EventKind
    detail: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        extras = " ".join(f"{k}={v!r}" for k, v in self.detail.items())
        return f"<{self.time:10.3f}s node={self.node:#06x} {self.kind.value} {extras}>"


class TraceRecorder:
    """Collects events from every node; queryable by kind/node/window.

    Recording can be disabled (``enabled=False``) for long benchmark runs
    where only counters matter — ``record`` becomes a counter update only.

    Listener contract
    -----------------
    Subscribed listeners (taps on :attr:`on_event`) fire **only while
    ``enabled`` is true** — a disabled recorder neither materialises
    :class:`TraceEvent` objects nor notifies listeners; only the per-kind
    counters advance.  When ``capacity`` is set, events past the cap are
    still delivered to listeners but not stored; :attr:`events_dropped`
    counts them.
    """

    def __init__(self, *, enabled: bool = True, capacity: Optional[int] = None) -> None:
        self.enabled = enabled
        self.capacity = capacity
        #: Events that listeners saw but the capacity-bounded store did not.
        self.events_dropped = 0
        self._events: List[TraceEvent] = []
        # Keyed by the kind's value string: record() runs for every
        # protocol event even when disabled, and member-keyed lookups
        # would pay a Python-level enum.__hash__ each time.
        self._counts: Dict[str, int] = {k._value_: 0 for k in EventKind}
        #: Observer hook, called with every recorded event; add
        #: listeners with :meth:`subscribe`.
        self.on_event: Optional[Callable[[TraceEvent], None]] = None

    def record(self, time: float, node: int, kind: EventKind, **detail: Any) -> None:
        """Append one event (or just count it when recording is disabled)."""
        self._counts[kind._value_] += 1
        if not self.enabled:
            return
        event = TraceEvent(time=time, node=node, kind=kind, detail=detail)
        if self.capacity is None or len(self._events) < self.capacity:
            self._events.append(event)
        else:
            self.events_dropped += 1
        if self.on_event is not None:
            self.on_event(event)

    def tally(self, kind: EventKind) -> None:
        """Count one ``kind`` event without recording it: what
        :meth:`record` does while disabled, for hot call sites that
        check :attr:`enabled` first and so build no detail to drop."""
        self._counts[kind._value_] += 1

    def subscribe(self, listener: Callable[[TraceEvent], None]) -> Tap:
        """Call ``listener`` for every recorded event while the recorder
        is enabled (see the listener contract in the class docstring);
        ``remove()`` the returned tap to stop."""
        return tap(self, "on_event", listener)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, kind: EventKind) -> int:
        """Total occurrences of ``kind`` (counted even when disabled)."""
        return self._counts[kind._value_]

    def events(
        self,
        kind: Optional[EventKind] = None,
        *,
        node: Optional[int] = None,
        after: float = float("-inf"),
        before: float = float("inf"),
    ) -> List[TraceEvent]:
        """Filtered view of the recorded events."""
        return [
            e
            for e in self._events
            if (kind is None or e.kind is kind)
            and (node is None or e.node == node)
            and after <= e.time < before
        ]

    def first(self, kind: EventKind, **filters: Any) -> Optional[TraceEvent]:
        """Earliest event of ``kind`` whose detail matches ``filters``."""
        for event in self._events:
            if event.kind is kind and all(
                event.detail.get(k) == v for k, v in filters.items()
            ):
                return event
        return None

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def clear(self) -> None:
        """Drop recorded events (counters persist)."""
        self._events.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        dropped = f", dropped={self.events_dropped}" if self.events_dropped else ""
        return f"<TraceRecorder {state}, {len(self._events)} events{dropped}>"

    def export_jsonl(self, path) -> "Path":
        """Write recorded events as JSON lines; returns the path.

        Symmetric with :meth:`repro.trace.capture.AirCapture.export_jsonl`:
        one object per line with ``time``/``node``/``kind``/``detail``
        (detail values are stringified when not JSON-serialisable).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for event in self._events:
                detail = {
                    k: v if isinstance(v, (int, float, str, bool, type(None))) else repr(v)
                    for k, v in event.detail.items()
                }
                handle.write(
                    json.dumps(
                        {
                            "time": event.time,
                            "node": event.node,
                            "kind": event.kind.value,
                            "detail": detail,
                        }
                    )
                    + "\n"
                )
        return path
