"""Outside-in layer tracing for the benchmark's traced run.

``Tracer.install`` wraps each layer's public entry points from here, before
the network is built, and the public hook attributes right after the
object that owns them is constructed or attached.  Nothing under
``src/`` knows it is traced.  Every wrapped call becomes a span (name,
start, end, parent) kept in memory in flat arrays; every simulator event
becomes a root span through the public ``Simulator.profiler`` hook.

A layer's self time is its spans' durations minus the time their child
spans cover (:func:`self_times`).  Wrappers only time and count: the
traced run's fingerprint must equal the untraced run's.
"""

from __future__ import annotations

import functools
import re
from array import array
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from workloads import percentile

#: Root span names by event label; anything else is kernel dispatch.
EVENT_TX_END = "event.tx_end"
EVENT_PUMP = "event.pump"
EVENT_OTHER = "event.other"

_PUMP_LABEL = re.compile(r" (pump|duty wait|cad wait)$")


def event_span_name(label: str) -> str:
    if label.startswith("tx#"):
        return EVENT_TX_END
    if _PUMP_LABEL.search(label):
        return EVENT_PUMP
    return EVENT_OTHER


class SpanLog:
    """Spans in flat arrays: name id, parent span id (-1: none), start, end."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = []
        #: Inside ``Simulator.run`` every span belongs to the event being
        #: dispatched, whose root span is only reported once it returns.
        self.in_run = 0
        self._pending_root = -1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.name)

    def _new(self, nid: int, parent: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(parent)
        self.start.append(0.0)
        self.end.append(0.0)
        return sid

    def begin(self, nid: int) -> int:
        if self._open:
            parent = self._open[-1]
        elif self.in_run:
            if self._pending_root < 0:
                self._pending_root = self._new(-1, -1)
            parent = self._pending_root
        else:
            parent = -1
        sid = self._new(nid, parent)
        self._open.append(sid)
        self.start[sid] = perf_counter()
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._open.pop()

    # -- Simulator.profiler protocol ------------------------------------
    def record(self, label: str, callback, elapsed_s: float) -> None:
        end = perf_counter()
        sid = self._pending_root
        if sid < 0:
            sid = self._new(-1, -1)
        self._pending_root = -1
        self.name[sid] = self.name_id(event_span_name(label))
        self.start[sid] = end - elapsed_s
        self.end[sid] = end

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(name: np.ndarray, parent: np.ndarray, start: np.ndarray, end: np.ndarray,
               n_names: int):
    """Per-name (span count, total self time) from flat span arrays."""
    duration = end - start
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(name)
    )
    own = duration - child_time
    calls = np.bincount(name, minlength=n_names)
    self_s = np.bincount(name, weights=own, minlength=n_names)
    return calls, self_s


def _spanned(log: SpanLog, name: str, fn: Callable) -> Callable:
    nid = log.name_id(name)
    begin, finish = log.begin, log.finish

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            finish(sid)

    return wrapper


class Tracer:
    """Installs the wrappers and remembers how to take them off."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self._undo: List[tuple] = []
        #: (id(queue), id(packet)) -> push times, oldest first.
        self._queued: Dict[tuple, List[float]] = {}
        self.queue_waits = array("d")
        self.hello_rows = 0
        self.hello_noops = 0
        self.pathloss_calls = 0
        self.sim = None

    # -- patching helpers --------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, _spanned(self.log, name, getattr(owner, attr)))

    def hook(self, obj, attr: str, name: str) -> None:
        """Wrap a callable stored in an instance attribute."""
        fn = getattr(obj, attr)
        if fn is not None:
            setattr(obj, attr, _spanned(self.log, name, fn))

    def after(self, owner, attr: str, then: Callable) -> None:
        """Run ``then(result, *args)`` after every call of ``owner.attr``."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            then(result, *args)
            return result

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the layers --------------------------------------------------------
    def install(self, config) -> "Tracer":
        """Wrap every layer's entry points; call before building a network."""
        from repro.medium.channel import Medium
        from repro.net import mesher, serialization
        from repro.net.hello import HelloService
        from repro.net.queues import SendQueue
        from repro.net.reliable import ReliableTransport
        from repro.net.routing_table import make_routing_table
        from repro.net.stream import Stream, StreamManager
        from repro.obs.store import EventStore, StoreRecorder
        from repro.phy import batch, pathloss
        from repro.phy.link import LinkBudget
        from repro.radio.driver import Radio
        from repro.sim.kernel import Simulator
        from repro.verify.invariants import InvariantChecker

        log = self.log
        tracer = self

        # sim: every event is a root span; spans inside run() belong to it.
        def run(sim, *args, **kwargs):
            tracer.sim = sim
            sim.profiler = log
            log.in_run += 1
            try:
                return original_run(sim, *args, **kwargs)
            finally:
                log.in_run -= 1

        original_run = Simulator.run
        self._patch(Simulator, "run", functools.wraps(original_run)(run))

        # medium
        self.span(Medium, "begin_transmission", "medium.begin_transmission")
        self.span(Medium, "channel_busy", "medium.channel_busy")

        # phy
        for attr in ("evaluate", "in_range", "received_power_dbm"):
            self.span(LinkBudget, attr, f"phy.link.{attr}")
        for attr in ("rssi_matrix", "above_sensitivity_matrix"):
            self.span(batch, attr, f"phy.batch.{attr}")
        def loss_computed(*_):
            tracer.pathloss_calls += 1

        for model in vars(pathloss).values():
            if isinstance(model, type) and "loss_db" in vars(model):
                self.after(model, "loss_db", loss_computed)

        # radio
        self.span(Radio, "deliver", "radio.deliver")
        self.span(Radio, "transmit", "radio.transmit")

        # net.serialization, looked up on the module at call time
        self.span(serialization, "encode", "net.serialization.encode")
        self.span(serialization, "decode", "net.serialization.decode")

        # net.routing, on whichever class the factory builds by default
        table_cls = type(make_routing_table(1, impl=config.routing_impl))
        merge = _spanned(log, "net.routing.merge", table_cls.process_hello)

        def process_hello(table, src, entries, *args, **kwargs):
            before = table.version
            result = merge(table, src, entries, *args, **kwargs)
            tracer.hello_rows += len(entries)
            if table.version == before:
                tracer.hello_noops += 1
            return result

        process_hello = functools.wraps(table_cls.process_hello)(process_hello)
        self._patch(table_cls, "process_hello", process_hello)
        self.span(table_cls, "purge", "net.routing.purge")

        # net.hello
        self.span(HelloService, "send_hello", "net.hello.send_hello")

        # net.mesher: the radio's receive hook, bound at node construction
        def node_built(_, node, *args):
            tracer.sim = node.sim
            self.hook(node.radio, "on_receive", "net.mesher.rx")

        self.after(mesher.MesherNode, "__init__", node_built)

        # net.forwarding: classify as the mesher module looks it up
        self.span(mesher, "classify", "net.forwarding.classify")

        # net.queues: wait from push to pop, in simulated time
        def pushed(ok, queue, packet):
            if ok:
                tracer._queued.setdefault((id(queue), id(packet)), []).append(tracer.sim.now)

        def popped(packet, queue):
            if packet is not None:
                stamps = tracer._queued.get((id(queue), id(packet)))
                if stamps:
                    tracer.queue_waits.append(tracer.sim.now - stamps.pop(0))
                    if not stamps:
                        del tracer._queued[(id(queue), id(packet))]

        self.after(SendQueue, "push", pushed)
        self.after(SendQueue, "pop", popped)

        # net.reliable
        for attr in ("send", "handle_need_ack", "handle_ack", "handle_lost",
                     "handle_sync", "handle_xl_data"):
            self.span(ReliableTransport, attr, f"net.reliable.{attr}")

        # net.stream: the manager claims payloads through the node hook
        self.after(StreamManager, "__init__",
                   lambda _, mgr, node, *a, **k: self.hook(node, "on_reliable_consume",
                                                           "net.stream.consume"))
        self.span(StreamManager, "open", "net.stream.open")
        self.span(Stream, "send", "net.stream.send")

        # obs.store: the recorder's taps, then the store's write path
        def store_taps(_, recorder, *args):
            for node in recorder.net.nodes:
                for attr in ("on_route_event", "on_forward_decision", "on_app_delivery"):
                    self.hook(node, attr, "obs.store.tap")
            self.hook(recorder.net.medium, "on_frame", "obs.store.tap")

        self.after(StoreRecorder, "attach", store_taps)
        self.after(StoreRecorder, "watch_stream_manager",
                   lambda _, recorder, manager: self.hook(manager, "on_stream_event",
                                                          "obs.store.tap"))
        for attr in ("append", "append_encoded", "flush"):
            self.span(EventStore, attr, "obs.store.write")

        # verify: the checker's taps and audits
        def checker_taps(_, checker, *args):
            for node in checker.net.nodes:
                self.hook(node, "on_route_event", "verify.tap")
                self.hook(node, "on_forward_decision", "verify.tap")
                self.hook(node.reliable, "on_deliver", "verify.tap")

        self.after(InvariantChecker, "attach", checker_taps)
        self.after(InvariantChecker, "watch_stream_manager",
                   lambda _, checker, manager: self.hook(manager, "on_stream_event",
                                                         "verify.tap"))
        self.span(InvariantChecker, "audit", "verify.audit")
        return self


#: Per-layer metrics of a traced run, by name, with their units.
PER_LAYER = {
    "sim.events": "count",
    "sim.dispatch_self_s": "s",
    "medium.frames": "count",
    "medium.complete_self_s": "s",
    "medium.begin_self_s": "s",
    "medium.channel_busy_self_s": "s",
    "medium.rx_delivered": "count",
    "medium.rx_collision": "count",
    "medium.rx_culled": "count",
    "medium.useful_ratio": "ratio",
    "phy.link_calls": "count",
    "phy.link_self_s": "s",
    "phy.batch_calls": "count",
    "phy.batch_self_s": "s",
    "phy.memo_hit_ratio": "ratio",
    "radio.deliver_calls": "count",
    "radio.deliver_self_s": "s",
    "radio.transmit_self_s": "s",
    "radio.crc_failed": "count",
    "net.serialization.decode_calls": "count",
    "net.serialization.decode_self_s": "s",
    "net.serialization.encode_calls": "count",
    "net.serialization.encode_self_s": "s",
    "net.routing.merge_calls": "count",
    "net.routing.merge_rows": "count",
    "net.routing.merge_self_s": "s",
    "net.routing.merge_noop_ratio": "ratio",
    "net.routing.purge_self_s": "s",
    "net.routing.routes_removed": "count",
    "net.routing.table_rows": "count",
    "net.hello.beacons": "count",
    "net.hello.self_s": "s",
    "net.mesher.rx_self_s": "s",
    "net.mesher.pump_self_s": "s",
    "net.mesher.cad_deferrals": "count",
    "net.mesher.duty_deferrals": "count",
    "net.queues.drops": "count",
    "net.queues.wait_p50_s": "s",
    "net.queues.wait_p99_s": "s",
    "net.forwarding.classify_calls": "count",
    "net.forwarding.classify_self_s": "s",
    "net.forwarding.forwarded": "count",
    "net.forwarding.no_route": "count",
    "net.forwarding.overhear_ratio": "ratio",
    "net.reliable.self_s": "s",
    "net.reliable.singles_sent": "count",
    "net.reliable.retransmissions": "count",
    "net.reliable.local_defers": "count",
    "net.reliable.duplicates_suppressed": "count",
    "net.reliable.retx_ratio": "ratio",
    "net.stream.self_s": "s",
    "net.stream.opened": "count",
    "net.stream.reset": "count",
    "net.stream.open_wait_p99_s": "s",
    "obs.store.self_s": "s",
    "obs.store.events": "count",
    "verify.audit_self_s": "s",
    "verify.tap_self_s": "s",
    "verify.audits": "count",
    "verify.violations": "count",
    "perfbench.tap_self_s": "s",
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}

_RELIABLE = tuple(f"net.reliable.{a}" for a in (
    "send", "handle_need_ack", "handle_ack", "handle_lost", "handle_sync", "handle_xl_data"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counters: Dict[str, float], wall_s: float) -> Dict[str, float]:
    """The per-layer split of a traced run (all but ``trace.overhead``,
    which needs the untraced run)."""
    log = tracer.log
    spans = log.arrays()
    calls, own = self_times(
        spans["name"], spans["parent"], spans["start"], spans["end"], len(log.names)
    )
    by_name = {name: (int(calls[i]), float(own[i])) for i, name in enumerate(log.names)}

    def c(*names: str) -> int:
        return sum(by_name.get(n, (0, 0.0))[0] for n in names)

    def s(*names: str) -> float:
        return sum(by_name.get(n, (0, 0.0))[1] for n in names)

    waits = tracer.queue_waits
    link = c("phy.link.evaluate")
    merges = c("net.routing.merge")
    m = dict(counters)
    m.update({
        "sim.dispatch_self_s": s(EVENT_OTHER),
        "medium.complete_self_s": s(EVENT_TX_END),
        "medium.begin_self_s": s("medium.begin_transmission"),
        "medium.channel_busy_self_s": s("medium.channel_busy"),
        "medium.useful_ratio": _ratio(
            counters["medium.rx_delivered"],
            counters["medium.rx_delivered"] + counters["medium.rx_collision"]),
        "phy.link_calls": link,
        "phy.link_self_s": s(
            "phy.link.evaluate", "phy.link.in_range", "phy.link.received_power_dbm"
        ),
        "phy.batch_calls": c("phy.batch.rssi_matrix", "phy.batch.above_sensitivity_matrix"),
        "phy.batch_self_s": s("phy.batch.rssi_matrix", "phy.batch.above_sensitivity_matrix"),
        "phy.memo_hit_ratio": 1.0 - _ratio(tracer.pathloss_calls, link) if link else 0.0,
        "radio.deliver_calls": c("radio.deliver"),
        "radio.deliver_self_s": s("radio.deliver"),
        "radio.transmit_self_s": s("radio.transmit"),
        "net.serialization.decode_calls": c("net.serialization.decode"),
        "net.serialization.decode_self_s": s("net.serialization.decode"),
        "net.serialization.encode_calls": c("net.serialization.encode"),
        "net.serialization.encode_self_s": s("net.serialization.encode"),
        "net.routing.merge_calls": merges,
        "net.routing.merge_rows": tracer.hello_rows,
        "net.routing.merge_self_s": s("net.routing.merge"),
        "net.routing.merge_noop_ratio": _ratio(tracer.hello_noops, merges),
        "net.routing.purge_self_s": s("net.routing.purge"),
        "net.hello.beacons": c("net.hello.send_hello"),
        "net.hello.self_s": s("net.hello.send_hello"),
        "net.mesher.rx_self_s": s("net.mesher.rx"),
        "net.mesher.pump_self_s": s(EVENT_PUMP),
        "net.queues.wait_p50_s": percentile(waits, 50) if waits else 0.0,
        "net.queues.wait_p99_s": percentile(waits, 99) if waits else 0.0,
        "net.forwarding.classify_calls": c("net.forwarding.classify"),
        "net.forwarding.classify_self_s": s("net.forwarding.classify"),
        "net.forwarding.overhear_ratio": _ratio(
            counters["net.forwarding.overheard"], c("net.forwarding.classify")),
        "net.reliable.self_s": s(*_RELIABLE),
        "net.reliable.retx_ratio": _ratio(
            counters["net.reliable.retransmissions"], counters["net.reliable.singles_sent"]),
        "net.stream.self_s": s("net.stream.consume", "net.stream.open", "net.stream.send"),
        "obs.store.self_s": s("obs.store.tap", "obs.store.write"),
        "verify.audit_self_s": s("verify.audit"),
        "verify.tap_self_s": s("verify.tap"),
        "perfbench.tap_self_s": s("perfbench.tap"),
        "trace.wall_s": wall_s,
        "trace.residual_s": wall_s - float(own.sum()),
        "trace.spans": len(log),
        # Needs the untraced run's wall; run.py fills it in.
        "trace.overhead": 0.0,
    })
    return {name: m[name] for name in PER_LAYER}
