"""Persistent event store: every packet, route change, and health sample.

The paper demonstrates its library through a *live monitoring demo* —
watching routes form and traffic flow is the artifact.  This module is
the production-scale version of that console: a WAL-mode SQLite store
that a simulation **writer** streams into while any number of dashboard
**readers** (``repro.obs.dashboard``, ``repro serve``, ad-hoc scripts)
query it concurrently, live or after the run.

Design
------

* **Single writer, buffered batch commits.**  :class:`EventStore` in
  write mode owns the only writing connection; appends accumulate in a
  Python list and are flushed with one ``executemany`` + commit every
  ``batch_size`` events (and on :meth:`flush`/:meth:`close`).  WAL mode
  means readers never block the writer and vice versa.
* **One events table, JSON payloads.**  Every record is
  ``(t, wall, kind, node, data)`` where ``t`` is the *simulated* clock,
  ``wall`` the wall-clock offset since the run started (diagnostic
  only — nothing derived from it feeds back into results), ``kind`` one
  of the ``KIND_*`` constants, and ``data`` a JSON object.  Indexes on
  time, kind and node back the dashboard's range/feed queries; they are
  built when the writer closes (per-insert index maintenance would cost
  more than the inserts), while live tailing rides the integer primary
  key.
* **Outcome-invisible recording.**  :class:`StoreRecorder` attaches to
  a network purely through observer taps (``on_route_event``,
  ``on_forward_decision``, ``on_app_delivery``, the medium sniffer
  hook, trace listeners, sampler subscribers, and the invariant
  checker's violation hook).  None of them mutate protocol state, so a
  stored run has the identical fingerprint of an unstored one — the
  determinism tests assert exactly that.
* **JSONL bridges.**  Frame events round-trip with the existing
  :func:`repro.trace.capture.load_capture_jsonl` format, and sample
  events with :meth:`repro.obs.sampler.TimeSeriesSampler.export_jsonl`
  / :func:`repro.obs.sampler.load_timeseries_jsonl`, so existing
  offline tooling keeps working against stored runs.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.net.forwarding import ForwardAction
from repro.sim.taps import Tap, tap

__all__ = [
    "EventStore",
    "StoredEvent",
    "StoreRecorder",
    "frame_view",
    "KIND_FRAME",
    "KIND_ROUTE",
    "KIND_FORWARD",
    "KIND_DELIVERY",
    "KIND_VIOLATION",
    "KIND_SAMPLE",
    "KIND_TRACE",
    "KIND_MARKER",
    "KIND_STREAM",
]

SCHEMA_VERSION = 1

#: Event kinds written by :class:`StoreRecorder` (free-form kinds are
#: allowed for external importers, but the dashboard knows these).
KIND_FRAME = "frame"  # one completed transmission (air-capture shape)
KIND_ROUTE = "route"  # routing-table add/update/remove at one node
KIND_FORWARD = "forward"  # forwarding decision (forwarded / no-route)
KIND_DELIVERY = "delivery"  # application-layer delivery at one node
KIND_VIOLATION = "violation"  # confirmed invariant violation
KIND_SAMPLE = "sample"  # one flattened registry snapshot
KIND_TRACE = "trace"  # raw protocol trace event (when tracing is on)
KIND_MARKER = "marker"  # run lifecycle (started / converged / finished)
KIND_STREAM = "stream"  # stream lifecycle/delivery event at one node

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS nodes (
    address INTEGER PRIMARY KEY,
    name    TEXT NOT NULL,
    x       REAL NOT NULL,
    y       REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    id   INTEGER PRIMARY KEY,
    t    REAL NOT NULL,
    wall REAL,
    kind TEXT NOT NULL,
    node INTEGER,
    data TEXT NOT NULL
);
"""

# Secondary indexes are built once at close() rather than maintained per
# insert — they cost more than the row insert itself on the write path.
# Live readers don't miss them: the tail-follow query (id > cursor) is
# served by the integer primary key.
_INDEXES = """
CREATE INDEX IF NOT EXISTS idx_events_t ON events (t);
CREATE INDEX IF NOT EXISTS idx_events_kind ON events (kind, t);
CREATE INDEX IF NOT EXISTS idx_events_node ON events (node, t);
"""

# The writer's SQLite page cache, in KiB.  Its appends touch only the
# right edge of the rowid tree, so a small cache holds every page they
# revisit; readers keep SQLite's default (2,000 KiB) for their queries.
_WRITER_CACHE_KIB = 64


@dataclass(frozen=True)
class StoredEvent:
    """One row of the events table, payload decoded."""

    id: int
    t: float
    wall: Optional[float]
    kind: str
    node: Optional[int]
    data: Dict[str, Any]


class EventStore:
    """WAL-mode SQLite store of simulation events.

    ``mode`` is ``"w"`` (create/truncate; the single writer), ``"a"``
    (append to an existing store or create one), or ``"r"`` (read-only —
    what dashboard readers use; safe while a writer is live).
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        mode: str = "w",
        batch_size: int = 256,
    ) -> None:
        if mode not in ("w", "a", "r"):
            raise ValueError(f"mode must be 'w', 'a' or 'r', got {mode!r}")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.path = Path(path)
        self.mode = mode
        self.batch_size = batch_size
        self._committed = 0
        #: Write buffer of (t, wall, kind, node, data_json) rows.  The
        #: hot recording paths append to it directly (see StoreRecorder)
        #: — anything added here is picked up by the next flush.
        self._buffer: List[Tuple[float, Optional[float], str, Optional[int], str]] = []
        if mode == "r":
            if not self.path.exists():
                raise FileNotFoundError(f"no event store at {self.path}")
            self._conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, timeout=5.0
            )
        else:
            if mode == "w" and self.path.exists():
                self.path.unlink()
                for suffix in ("-wal", "-shm"):
                    side = Path(str(self.path) + suffix)
                    if side.exists():
                        side.unlink()
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(self.path, timeout=5.0)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA cache_size=-{_WRITER_CACHE_KIB}")
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
            self._conn.commit()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def append(
        self,
        t: float,
        kind: str,
        data: Dict[str, Any],
        *,
        node: Optional[int] = None,
        wall: Optional[float] = None,
    ) -> None:
        """Buffer one event; committed every ``batch_size`` appends."""
        self._check_writable()
        self._buffer.append((t, wall, kind, node, json.dumps(data, sort_keys=True)))
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def append_encoded(
        self,
        t: float,
        kind: str,
        data_json: str,
        *,
        node: Optional[int] = None,
        wall: Optional[float] = None,
    ) -> None:
        """:meth:`append` for callers that pre-encoded the JSON payload.

        The hot recording paths (one call per transmitted frame) build
        their payload with an f-string; skipping ``json.dumps`` here is
        most of what keeps store overhead in budget.
        """
        self._check_writable()
        self._buffer.append((t, wall, kind, node, data_json))
        if len(self._buffer) >= self.batch_size:
            self.flush()

    @property
    def appended(self) -> int:
        """Events appended through this store instance."""
        return self._committed + len(self._buffer)

    def flush(self) -> None:
        """Commit the buffer plus any pending un-committed writes."""
        self._check_writable()
        if self._buffer:
            self._conn.executemany(
                "INSERT INTO events (t, wall, kind, node, data) VALUES (?, ?, ?, ?, ?)",
                self._buffer,
            )
            self._committed += len(self._buffer)
            self._buffer.clear()
        # Always commit: add_node defers its commit to the next flush,
        # and sqlite3 would roll an open transaction back on close().
        self._conn.commit()

    def set_meta(self, key: str, value: Any) -> None:
        """Record one run-metadata entry (committed immediately)."""
        self._check_writable()
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (key, json.dumps(value, sort_keys=True)),
        )
        self._conn.commit()

    def add_node(self, address: int, name: str, x: float, y: float) -> None:
        """Register one node (address, display name, planar position).

        Commits lazily on the next :meth:`flush` — registering an
        n=300 deployment is one transaction, not 300.
        """
        self._check_writable()
        self._conn.execute(
            "INSERT OR REPLACE INTO nodes (address, name, x, y) VALUES (?, ?, ?, ?)",
            (address, name, float(x), float(y)),
        )

    def ensure_indexes(self) -> None:
        """Build the time/kind/node query indexes (idempotent)."""
        self._check_writable()
        self._conn.executescript(_INDEXES)
        self._conn.commit()

    def close(self) -> None:
        """Flush and index (writers), then close the connection."""
        if self.mode != "r":
            self.flush()
            self.ensure_indexes()
        self._conn.close()

    def __enter__(self) -> "EventStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_writable(self) -> None:
        if self.mode == "r":
            raise sqlite3.OperationalError("store opened read-only")

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def meta(self) -> Dict[str, Any]:
        """Every metadata entry, JSON-decoded where possible."""
        self._autoflush()
        out: Dict[str, Any] = {}
        for key, value in self._conn.execute("SELECT key, value FROM meta"):
            try:
                out[key] = json.loads(value)
            except (json.JSONDecodeError, ValueError):
                out[key] = value
        return out

    def nodes(self) -> List[Dict[str, Any]]:
        """Registered nodes as ``{address, name, x, y}`` dicts."""
        self._autoflush()
        return [
            {"address": address, "name": name, "x": x, "y": y}
            for address, name, x, y in self._conn.execute(
                "SELECT address, name, x, y FROM nodes ORDER BY address"
            )
        ]

    def events(
        self,
        *,
        kind: Optional[str] = None,
        node: Optional[int] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        after_id: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[StoredEvent]:
        """Indexed time-range / per-node / per-kind query.

        ``t0``/``t1`` bound the simulated time as ``t0 <= t < t1``;
        ``after_id`` selects strictly newer rows (the live-feed cursor).
        Rows come back in insertion order.
        """
        self._autoflush()
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if node is not None:
            clauses.append("node = ?")
            params.append(node)
        if t0 is not None:
            clauses.append("t >= ?")
            params.append(t0)
        if t1 is not None:
            clauses.append("t < ?")
            params.append(t1)
        if after_id is not None:
            clauses.append("id > ?")
            params.append(after_id)
        sql = "SELECT id, t, wall, kind, node, data FROM events"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        return [
            StoredEvent(id=i, t=t, wall=w, kind=k, node=n, data=json.loads(d))
            for i, t, w, k, n, d in self._conn.execute(sql, params)
        ]

    def count(self, *, kind: Optional[str] = None) -> int:
        """Total stored events (optionally of one kind)."""
        self._autoflush()
        if kind is None:
            row = self._conn.execute("SELECT COUNT(*) FROM events").fetchone()
        else:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM events WHERE kind = ?", (kind,)
            ).fetchone()
        return int(row[0])

    def counts_by_kind(self) -> Dict[str, int]:
        """Histogram of stored event kinds."""
        self._autoflush()
        return {
            kind: int(count)
            for kind, count in self._conn.execute(
                "SELECT kind, COUNT(*) FROM events GROUP BY kind ORDER BY kind"
            )
        }

    def last_id(self) -> int:
        """Highest event id (0 when empty) — the live-feed cursor seed."""
        self._autoflush()
        row = self._conn.execute("SELECT MAX(id) FROM events").fetchone()
        return int(row[0] or 0)

    def time_range(self) -> Tuple[float, float]:
        """(min, max) simulated time across stored events; (0, 0) if empty."""
        self._autoflush()
        row = self._conn.execute("SELECT MIN(t), MAX(t) FROM events").fetchone()
        if row[0] is None:
            return (0.0, 0.0)
        return (float(row[0]), float(row[1]))

    def _autoflush(self) -> None:
        # Writer-side reads must see their own buffered tail.
        if self.mode != "r" and self._buffer:
            self.flush()

    # ------------------------------------------------------------------
    # Derived views (what the dashboard serves)
    # ------------------------------------------------------------------
    def route_state_at(self, t: Optional[float] = None) -> Dict[int, Dict[int, Dict[str, int]]]:
        """Fold route events up to time ``t`` into per-node tables.

        Returns ``{node: {dst: {"via": .., "metric": ..}}}`` — the
        routing state the mesh had at simulated instant ``t`` (the whole
        run when ``t`` is None).  This is what replay scrubbing uses.
        """
        state: Dict[int, Dict[int, Dict[str, int]]] = {}
        for event in self.events(kind=KIND_ROUTE, t1=None if t is None else t + 1e-9):
            if event.node is None:
                continue
            table = state.setdefault(event.node, {})
            data = event.data
            if data.get("event") == "removed":
                table.pop(int(data["dst"]), None)
            else:
                table[int(data["dst"])] = {
                    "via": int(data["via"]),
                    "metric": int(data["metric"]),
                }
        return state

    def topology_at(self, t: Optional[float] = None) -> Dict[str, Any]:
        """Node positions plus direct (metric == 1) links at time ``t``."""
        nodes = self.nodes()
        state = self.route_state_at(t)
        links = set()
        for node, table in state.items():
            for dst, entry in table.items():
                if entry["metric"] == 1:
                    links.add((min(node, dst), max(node, dst)))
        return {
            "nodes": nodes,
            "links": sorted([a, b] for a, b in links),
            "t": t,
        }

    def last_sample(self, t: Optional[float] = None) -> Optional[StoredEvent]:
        """The newest registry sample (at or before ``t`` when given)."""
        events = self.events(kind=KIND_SAMPLE, t1=None if t is None else t + 1e-9)
        return events[-1] if events else None

    def health_summary(self, t: Optional[float] = None) -> Dict[str, Any]:
        """Deterministic health summary built from stored samples.

        Derived *only* from sim-clock data, so serving a finished run
        live and replaying it later produce byte-identical summaries
        (``json.dumps(..., sort_keys=True)`` both times).
        """
        from repro.metrics.health import health_from_flat_values

        sample = self.last_sample(t)
        if sample is None:
            return {"t": None, "nodes": [], "coverage": None}
        health = health_from_flat_values(sample.data["values"], time_s=sample.t)
        return {
            "t": sample.t,
            "coverage": health.coverage,
            "total_frames": health.total_frames,
            "total_airtime_s": health.total_airtime_s,
            "worst_duty": health.worst_duty,
            "nodes": [
                {
                    "name": n.name,
                    "routes": n.routes,
                    "neighbours": n.neighbours,
                    "frames_sent": n.frames_sent,
                    "forwarded": n.forwarded,
                    "delivered": n.delivered,
                    "no_route_drops": n.no_route_drops,
                    "queue_depth": n.queue_depth,
                    "queue_drops": n.queue_drops,
                    "duty_utilisation": n.duty_utilisation,
                    "tx_airtime_s": n.tx_airtime_s,
                    "energy_j": n.energy_j,
                }
                for n in health.nodes
            ],
        }

    # ------------------------------------------------------------------
    # JSONL bridges
    # ------------------------------------------------------------------
    def export_capture_jsonl(self, path: Union[str, Path]) -> Path:
        """Write frame events in the air-capture JSONL format.

        The output is loadable by
        :func:`repro.trace.capture.load_capture_jsonl` — stored runs
        plug straight into the existing offline capture tooling.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, event in enumerate(self.events(kind=KIND_FRAME)):
                handle.write(
                    json.dumps(
                        frame_view(event.data, t=event.t, node=event.node, index=index)
                    )
                    + "\n"
                )
        return path

    def import_capture_jsonl(self, path: Union[str, Path]) -> int:
        """Ingest an :meth:`AirCapture.export_jsonl` file as frame events."""
        count = 0
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            self.append(
                float(record["time"]), KIND_FRAME, record, node=int(record["sender"])
            )
            count += 1
        return count

    def export_timeseries_jsonl(self, path: Union[str, Path]) -> Path:
        """Write sample events in the sampler's JSONL format (loadable by
        :func:`repro.obs.sampler.load_timeseries_jsonl`)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for event in self.events(kind=KIND_SAMPLE):
                handle.write(
                    json.dumps(
                        {"t": event.t, "values": event.data["values"]}, sort_keys=True
                    )
                    + "\n"
                )
        return path

    def import_timeseries_jsonl(self, path: Union[str, Path]) -> int:
        """Ingest a sampler JSONL export as sample events."""
        from repro.obs.sampler import load_timeseries_jsonl

        points = load_timeseries_jsonl(path)
        for point in points:
            self.append(point.time_s, KIND_SAMPLE, {"values": dict(point.values)})
        return len(points)

    def __repr__(self) -> str:
        return f"EventStore({str(self.path)!r}, mode={self.mode!r}, appended={self.appended})"


def frame_view(
    data: Dict[str, Any],
    *,
    t: Optional[float] = None,
    node: Optional[int] = None,
    index: Optional[int] = None,
) -> Dict[str, Any]:
    """Air-capture-shaped view of a stored frame event's payload.

    The recorder stores only the irreducible per-frame fields — raw
    payload (hex) and airtime — because decoding the frame or repeating
    the row's time/sender in the JSON would blow the write-side overhead
    budget.  This derives the full capture shape on read: ``kind`` and
    ``summary`` from the payload, ``time``/``sender`` from the event row
    (pass ``t``/``node``), and ``index`` from the caller's enumeration
    (frame events in insertion order are in capture order).  Records
    that already carry ``kind`` — imported captures — pass through
    unchanged.
    """
    if "kind" in data:
        return data
    from repro.trace.capture import _describe

    payload = bytes.fromhex(data["payload"])
    kind, summary = _describe(payload)
    return {
        "index": data.get("index", index),
        "time": data.get("time", t),
        "sender": data.get("sender", node),
        "size": len(payload),
        "airtime_s": data["airtime_s"],
        "kind": kind,
        "summary": summary,
        "outcomes": data.get("outcomes", {}),
    }


# ----------------------------------------------------------------------
# Live recording
# ----------------------------------------------------------------------
class StoreRecorder:
    """Streams a running network into an :class:`EventStore`.

    Attaches purely through observer taps (:func:`repro.sim.taps.tap`),
    so recording composes with verification and other observers and
    never perturbs protocol state::

        store = EventStore("run.db")
        recorder = StoreRecorder(store, net).attach()
        net.run(for_s=3600)
        recorder.detach(); store.close()

    Frames, the highest-volume stream, are recorded through the medium's
    lightweight ``on_frame`` hook: raw payload and airtime, no
    per-listener outcomes, so the medium keeps its aggregate reception
    fast path.  A store that needs per-listener outcomes imports an
    :class:`~repro.trace.capture.AirCapture` export instead
    (:meth:`EventStore.import_capture_jsonl`).
    """

    def __init__(
        self,
        store: EventStore,
        net,
        *,
        sampler=None,
        checker=None,
    ) -> None:
        self.store = store
        self.net = net
        self.sampler = sampler
        self.checker = checker
        self._active = False
        # Hot-path caches: the frame hook bypasses append_encoded.
        self._buffer = store._buffer
        self._batch_size = store.batch_size
        self._taps: List[Tap] = []

    # ------------------------------------------------------------------
    def attach(self) -> "StoreRecorder":
        """Register nodes, install taps, and start recording."""
        if self._active:
            return self
        self._active = True
        sim = self.net.sim
        self._wall_anchor = getattr(sim, "wall_elapsed", None)
        for node in self.net.nodes:
            radio = getattr(node, "radio", None)
            if radio is not None:
                x, y = radio.position
            else:  # pragma: no cover - every current node type has a radio
                x, y = 0.0, 0.0
            name = getattr(node, "name", None) or f"0x{node.address:04X}"
            self.store.add_node(node.address, name, x, y)
            self._tap_node(node)
        medium = getattr(self.net, "medium", None)
        if medium is not None:
            self._taps.append(tap(medium, "on_frame", self._on_frame))
        trace = getattr(self.net, "trace", None)
        if trace is not None and hasattr(trace, "subscribe"):
            self._taps.append(trace.subscribe(self._on_trace_event))
        if self.sampler is not None and hasattr(self.sampler, "subscribe"):
            self._taps.append(self.sampler.subscribe(self._on_sample))
        if self.checker is not None:
            self._taps.append(tap(self.checker, "on_violation", self._on_violation))
        self._marker("started")
        return self

    def detach(self) -> None:
        """Remove the taps; recorded events remain."""
        if not self._active:
            return
        self._marker("finished")
        self.store.set_meta("finished", True)  # live SSE feeds end on this
        self._active = False
        for handle in self._taps:
            handle.remove()
        self._taps.clear()

    def mark(self, phase: str, **detail: Any) -> None:
        """Record a lifecycle marker (e.g. ``converged``)."""
        self._marker(phase, **detail)

    # ------------------------------------------------------------------
    def _wall(self) -> Optional[float]:
        anchor = self._wall_anchor
        return anchor() if anchor is not None else None

    def _marker(self, phase: str, **detail: Any) -> None:
        data = {"phase": phase}
        data.update(detail)
        self.store.append(
            self.net.sim.now, KIND_MARKER, data, wall=self._wall()
        )
        self.store.flush()

    def _tap_node(self, node) -> None:
        if not hasattr(node, "on_route_event"):
            return  # baseline stacks without the observer taps
        manager = getattr(node, "stream_manager", None)
        if manager is not None:
            self.watch_stream_manager(manager)
        self._taps.append(tap(node, "on_route_event", partial(self._on_route_event, node)))
        self._taps.append(
            tap(node, "on_forward_decision", partial(self._on_forward_decision, node))
        )
        self._taps.append(tap(node, "on_app_delivery", partial(self._on_app_delivery, node)))

    def watch_stream_manager(self, manager) -> None:
        """Record a :class:`~repro.net.stream.StreamManager`'s lifecycle
        and delivery events as ``KIND_STREAM`` rows until :meth:`detach`.
        Call for managers created *after* :meth:`attach`; managers
        already present at attach time are tapped automatically.
        """
        self._taps.append(
            tap(manager, "on_stream_event", partial(self._on_stream_event, manager.node.address))
        )

    # ------------------------------------------------------------------
    # Event builders
    # ------------------------------------------------------------------
    def _on_route_event(self, node, kind: str, entry) -> None:
        # Hand-encoded like the frame path: route churn spikes (link
        # flaps, fault drills) hit this at high rate.
        self.store.append_encoded(
            self.net.sim.now,
            KIND_ROUTE,
            f'{{"dst": {entry.address}, "event": "{kind}", '
            f'"metric": {entry.metric}, "via": {entry.via}}}',
            node=node.address,
            wall=self._wall(),
        )

    def _on_forward_decision(self, node, packet, decision, previous_hop) -> None:
        # Hand-encoded like the route path, keys sorted: one call per
        # forwarded or unroutable data frame (the node dispatches no
        # other decision; deliveries land as KIND_DELIVERY).
        if decision.action is ForwardAction.FORWARD:
            data = (
                f'{{"action": "forward", "dst": {packet.dst}, '
                f'"next_hop": {decision.next_hop}, '
                f'"packet": "{type(packet).__name__}", "src": {packet.src}}}'
            )
        else:
            data = (
                f'{{"action": "no_route", "dst": {packet.dst}, '
                f'"packet": "{type(packet).__name__}", "src": {packet.src}}}'
            )
        self.store.append_encoded(
            self.net.sim.now, KIND_FORWARD, data, node=node.address, wall=self._wall()
        )

    def _on_stream_event(self, address, kind, peer, stream_id, initiator_side, msg_seq) -> None:
        self.store.append(
            self.net.sim.now,
            KIND_STREAM,
            {
                "event": kind,
                "peer": peer,
                "stream": stream_id,
                "initiator": bool(initiator_side),
                "seq": msg_seq,
            },
            node=address,
            wall=self._wall(),
        )

    def _on_app_delivery(self, node, message) -> None:
        self.store.append(
            self.net.sim.now,
            KIND_DELIVERY,
            {
                "src": message.src,
                "bytes": len(message.payload),
                "reliable": bool(message.reliable),
            },
            node=node.address,
            wall=self._wall(),
        )

    def _on_frame(self, tx) -> None:
        # Hot path: one call per transmitted frame.  Only the
        # irreducible fields are stored — payload (hex) and airtime —
        # with the JSON built by hand and the row pushed straight into
        # the store's write buffer; anything more per frame (decoding,
        # json.dumps, duplicated time/sender fields, wall stamps) is
        # what would break the <10% store-overhead budget.  frame_view
        # reconstitutes the full air-capture shape on read.
        buffer = self._buffer
        buffer.append(
            (
                tx.start,
                None,
                KIND_FRAME,
                tx.sender_id,
                f'{{"airtime_s": {tx.airtime!r}, "payload": "{tx.payload.hex()}"}}',
            )
        )
        if len(buffer) >= self._batch_size:
            self.store.flush()

    def _on_trace_event(self, event) -> None:
        detail = {
            k: v if isinstance(v, (int, float, str, bool, type(None))) else repr(v)
            for k, v in event.detail.items()
        }
        self.store.append(
            event.time,
            KIND_TRACE,
            {"kind": event.kind.value, "detail": detail},
            node=event.node,
            wall=self._wall(),
        )

    def _on_sample(self, point) -> None:
        self.store.append(
            point.time_s,
            KIND_SAMPLE,
            {"values": dict(point.values)},
            wall=self._wall(),
        )
        self.store.flush()  # samples pace the live dashboard; land them now

    def _on_violation(self, violation) -> None:
        self.store.append(
            violation.time,
            KIND_VIOLATION,
            {"invariant": violation.invariant.value, "detail": violation.detail},
            node=violation.node,
            wall=self._wall(),
        )
        self.store.flush()  # violations must be visible immediately
