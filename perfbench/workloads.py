"""The benchmark's workloads: inputs, one run, output checks, fingerprint.

Every input is generated here from the seed alone (node positions,
protocol configs, flow specs), so a change to the program's own
placement helpers or ``build_workload`` cannot reshape a workload.  The
program receives positions, a :class:`MesherConfig` and
:class:`FlowSpec` lists, and runs with its defaults: no routing,
medium or invariant knob is set here.

A run has two timed phases.  *Set-up* builds the network, store and
observers (``setup_s``, CPU time); the *run* is the cold-start warm-up
until every node routes to every other node, then the flow phase
(``wall_s``, wall time).
Simulated results depend on the seed only.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import heapq
import math
import random
import resource
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.medium.channel import DropReason
from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.obs.store import EventStore, StoreRecorder
from repro.phy.modulation import Bandwidth, LoRaParams
from repro.phy.regions import UNRESTRICTED
from repro.trace.events import EventKind
from repro.verify.invariants import InvariantChecker
from repro.workload.flows import MSG_OVERHEAD, FlowEngine, FlowSpec

WORKLOADS = ("converge_n300", "soak_bw500", "soak_observed")

#: Cold-start deadline for the warm-up: every ordered pair must be
#: routed by then or the run is incorrect.
WARMUP_TIMEOUT_S = 7200.0

#: The BW500 radio reaches 70.35 m under the default log-distance model;
#: placements are connected on this shorter disk so they stay connected
#: whatever rounding the PHY does.
BW500_LINK_M = 68.0

#: Set-ups per instance; each is a ``setup_s`` sample.
SETUPS_PER_INSTANCE = 5

_BW500 = dict(
    lora=LoRaParams(bandwidth=Bandwidth.BW500),
    region=UNRESTRICTED,
    hello_period_s=120.0,
    route_timeout_s=7200.0,
    purge_period_s=900.0,
    send_queue_capacity=64,
)


@dataclass
class Inputs:
    """Everything the program is given for one workload and seed."""

    workload: str
    #: Seeds the program's own random streams (hello jitter, backoff).
    seed: int
    positions: List[Tuple[float, float]]
    config: MesherConfig
    flows: List[FlowSpec] = field(default_factory=list)
    #: Simulated seconds the flow phase runs after the warm-up.
    flow_phase_s: float = 0.0
    #: Attach the event store and the invariant checker.
    observed: bool = False


def grid(cols: int, rows: int, spacing_m: float) -> List[Tuple[float, float]]:
    return [(c * spacing_m, r * spacing_m) for r in range(rows) for c in range(cols)]


def connected_placement(
    rng: random.Random, n: int, side_m: float, link_m: float, min_separation_m: float = 30.0
) -> List[Tuple[float, float]]:
    """Uniform positions in a square, redrawn until the disk graph of
    radius ``link_m`` is connected."""
    for _ in range(100):
        points: List[Tuple[float, float]] = []
        sep2 = min_separation_m * min_separation_m
        while len(points) < n:
            x, y = rng.uniform(0.0, side_m), rng.uniform(0.0, side_m)
            if all((x - a) ** 2 + (y - b) ** 2 >= sep2 for a, b in points):
                points.append((x, y))
        if _connected(points, link_m):
            return points
    raise RuntimeError(f"no connected {n}-node placement in 100 draws")


def _connected(points: Sequence[Tuple[float, float]], link_m: float) -> bool:
    reach2 = link_m * link_m
    seen = {0}
    stack = [0]
    while stack:
        xi, yi = points[stack.pop()]
        for j, (xj, yj) in enumerate(points):
            if j not in seen and (xj - xi) ** 2 + (yj - yi) ** 2 <= reach2:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(points)


def mixed_flows(
    rng: random.Random,
    addresses: Sequence[int],
    count: int,
    *,
    window_s: float,
    messages: int = 3,
    payload_bytes: int = 32,
    chat_interval_s: float = 90.0,
) -> List[FlowSpec]:
    """``count`` flows, a third each bursty, ota and chat, started at a
    fixed rate over ``window_s`` in random order (an open-loop arrival
    schedule: one start every ``window_s / count``, whatever the mesh
    does).

    ``bursty`` hands its messages to the stream at once; ``ota`` fans one
    sender out to a quarter of the nodes; ``chat`` is a pair of opposite
    flows pacing one message every ``chat_interval_s``."""
    addresses = list(addresses)
    specs: List[FlowSpec] = []
    fanout = max(2, len(addresses) // 4)
    starts = [(i + 0.5) * window_s / count for i in range(count)]
    rng.shuffle(starts)

    def add(kind: str, src: int, dst: int, interval_s: float) -> None:
        specs.append(
            FlowSpec(
                flow_id=len(specs),
                kind=kind,
                src=src,
                dst=dst,
                messages=messages,
                payload_bytes=payload_bytes,
                start_s=starts[len(specs)],
                interval_s=interval_s,
            )
        )

    third = count // 3
    for kind, target in (("bursty", third), ("ota", third), ("chat", count - 2 * third)):
        goal = len(specs) + target
        while len(specs) < goal:
            if kind == "ota":
                src = rng.choice(addresses)
                others = [a for a in addresses if a != src]
                for dst in rng.sample(others, min(fanout, goal - len(specs))):
                    add(kind, src, dst, 0.0)
                continue
            src, dst = rng.sample(addresses, 2)
            if kind == "bursty":
                add(kind, src, dst, 0.0)
            else:
                add(kind, src, dst, chat_interval_s)
                if len(specs) < goal:
                    add(kind, dst, src, chat_interval_s)
    return specs


def make_inputs(workload: str, seed: int, instance: int = 0) -> Inputs:
    """The inputs of one instance of ``workload``; a run pools several
    instances, each drawn from ``(seed, instance)`` alone."""
    if workload == "converge_n300":
        rng = random.Random(f"perfbench/converge_n300/{seed}/{instance}")
        n = 300
        positions = connected_placement(rng, n, 66.0 * math.sqrt(n / 2.0), BW500_LINK_M)
        config = MesherConfig(**_BW500, max_metric=64)
        return Inputs(workload, rng.getrandbits(32), positions, config)
    if workload in ("soak_bw500", "soak_observed"):
        # Both soaks share their inputs: the observed one differs only in
        # the store and checker attached, so its fingerprint must match.
        rng = random.Random(f"perfbench/soak/{seed}/{instance}")
        positions = grid(7, 7, 60.0)
        addresses = [1 + i for i in range(len(positions))]
        flows = mixed_flows(rng, addresses, 250, window_s=1800.0)
        config = MesherConfig(**_BW500, stream_window=2)
        return Inputs(
            workload, rng.getrandbits(32), positions, config, flows,
            flow_phase_s=1800.0 + 600.0, observed=workload == "soak_observed",
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of a non-empty sample (the
    benchmark's own, so a change to the program's statistics helpers
    cannot move a metric)."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class DeliveryLog:
    """Checks and times every message a flow workload delivers.

    A message is due at its flow's start plus its pacing offset, so its
    latency counts the SYN handshake and any window wait before it left.
    """

    def __init__(self, flows: Sequence[FlowSpec]) -> None:
        self.specs = {spec.flow_id: spec for spec in flows}
        self.flow_t0 = 0.0
        self.delivered: Dict[int, int] = {}
        self.last_sent_at: Dict[int, float] = {}
        self.latencies_s: List[float] = []
        self.errors: List[str] = []

    @property
    def planned(self) -> int:
        return sum(spec.messages for spec in self.specs.values())

    def due_s(self, spec: FlowSpec, index: int) -> float:
        return self.flow_t0 + spec.start_s + index * spec.interval_s

    def record(self, receiver: int, sender: int, flow_id: int, sent_at: float,
               stream_seq: int, now: float) -> None:
        spec = self.specs.get(flow_id)
        if spec is None:
            self.errors.append(f"message of unplanned flow {flow_id}")
            return
        index = self.delivered.get(flow_id, 0)
        if (receiver, sender) != (spec.dst, spec.src):
            self.errors.append(f"flow {flow_id} delivered {sender}->{receiver}")
        if index >= spec.messages:
            self.errors.append(f"flow {flow_id} delivered more than {spec.messages} messages")
        if stream_seq != index:
            self.errors.append(f"flow {flow_id} message {stream_seq} arrived as number {index}")
        last = self.last_sent_at.get(flow_id)
        if last is not None and (sent_at < last or (spec.interval_s > 0 and sent_at == last)):
            self.errors.append(f"flow {flow_id} message {index} repeated or out of order")
        self.delivered[flow_id] = index + 1
        self.last_sent_at[flow_id] = sent_at
        self.latencies_s.append(now - self.due_s(spec, index))

    def count(self) -> int:
        return sum(self.delivered.values())


#: How ``FlowEngine`` opens every message body: flow id, send sim-time.
_MSG_HEADER = struct.Struct(">Id")


def tap_deliveries(engine: FlowEngine, log: DeliveryLog, sim) -> None:
    """Route every stream the engine accepts through ``log`` first.

    Call after ``engine.start()``, which creates every receiving node's
    stream manager."""
    for manager in engine.managers():
        receiver = manager.node.address
        accept = manager.on_accept

        def on_accept(stream, _accept=accept, _receiver=receiver):
            verdict = _accept(stream)
            deliver = stream.on_message

            def on_message(s, body, _deliver=deliver):
                if len(body) < MSG_OVERHEAD:
                    log.errors.append(f"{len(body)} B message from {s.peer} is no flow's")
                else:
                    flow_id, sent_at = _MSG_HEADER.unpack_from(body)
                    # The stream counts a message before handing it over,
                    # so its count minus one is this message's sequence.
                    log.record(_receiver, s.peer, flow_id, sent_at,
                               s.stats.messages_received - 1, sim.now)
                if _deliver is not None:
                    _deliver(s, body)

            stream.on_message = on_message
            return verdict

        manager.on_accept = on_accept


class RouteLog:
    """First time each node held a route to each destination."""

    def __init__(self, net: MeshNetwork) -> None:
        self.first_routed: Dict[Tuple[int, int], float] = {}
        self._sim = net.sim
        for node in net.nodes:
            node.on_route_event = functools.partial(
                self.observe, node.address, node.on_route_event
            )

    def observe(self, address: int, chained, kind: str, entry) -> None:
        if kind == "added":
            self.first_routed.setdefault((address, entry.address), self._sim.now)
        if chained is not None:
            chained(kind, entry)


@dataclass
class Harness:
    """One built network, ready to run."""

    inputs: Inputs
    net: MeshNetwork
    engine: Optional[FlowEngine] = None
    checker: Optional[InvariantChecker] = None
    store: Optional[EventStore] = None
    recorder: Optional[StoreRecorder] = None
    store_events: int = 0

    def close(self) -> None:
        if self.recorder is not None:
            self.recorder.detach()
            self.recorder = None
        if self.store is not None:
            self.store_events = self.store.appended
            self.store.close()
            self.store = None


def build(inputs: Inputs, store_path: Path) -> Harness:
    """Set-up: medium, radios and nodes, then the store and observers,
    attached in the order ``run_protocol`` uses."""
    net = MeshNetwork.from_positions(
        inputs.positions, config=inputs.config, seed=inputs.seed, trace_enabled=False
    )
    harness = Harness(inputs, net)
    if inputs.observed:
        harness.checker = InvariantChecker(net, strict=False).attach()
        harness.store = EventStore(store_path, mode="w")
        harness.recorder = StoreRecorder(harness.store, net, checker=harness.checker).attach()
    if inputs.flows:
        harness.engine = FlowEngine(net, checker=harness.checker)
        harness.engine.add_flows(inputs.flows)
    return harness


def timed_setup(inputs: Inputs, store_path: Path, repeats: int = SETUPS_PER_INSTANCE):
    """Build ``repeats`` times and keep the last network; returns it with
    every set-up's CPU time.

    CPU time, not wall time: creating the store's SQLite file waits on
    the disk, and on a shared disk that wait alone moved the median
    set-up of ``soak_observed`` by 64% between two sets of runs, while
    the set-up's own work stays within a few percent."""
    times = []
    harness = None
    for _ in range(repeats):
        if harness is not None:
            harness.close()
            harness = None
            gc.collect()
        start = time.process_time()
        harness = build(inputs, store_path)
        times.append(time.process_time() - start)
    return harness, times


@dataclass
class Outcome:
    """What one run produced, before it is turned into metrics."""

    convergence_s: Optional[float]
    control_airtime_s: float
    flow_airtime_s: float
    wall_s: float
    deliveries: Optional[DeliveryLog] = None
    routes: Optional[RouteLog] = None


def execute(harness: Harness) -> Outcome:
    """The timed run: cold start to convergence, then the flow phase."""
    net, engine = harness.net, harness.engine
    routes = RouteLog(net) if engine is None else None
    log = DeliveryLog(harness.inputs.flows) if engine is not None else None
    start = time.perf_counter()
    convergence = net.run_until_converged(timeout_s=WARMUP_TIMEOUT_S)
    control_airtime = net.total_airtime_s()
    if engine is not None:
        log.flow_t0 = net.sim.now
        engine.start()
        tap_deliveries(engine, log, net.sim)
        if harness.recorder is not None:
            for manager in engine.managers():
                harness.recorder.watch_stream_manager(manager)
        net.run(for_s=harness.inputs.flow_phase_s)
    if harness.checker is not None:
        harness.checker.audit()
    harness.close()
    wall = time.perf_counter() - start
    return Outcome(
        convergence_s=convergence,
        control_airtime_s=control_airtime,
        flow_airtime_s=net.total_airtime_s() - control_airtime,
        wall_s=wall,
        deliveries=log,
        routes=routes,
    )


def routing_digest(net: MeshNetwork) -> str:
    """sha256 over every node's routing table, nodes and rows by address."""
    digest = hashlib.sha256()
    for node in sorted(net.nodes, key=lambda n: n.address):
        digest.update(f"{node.address}:".encode())
        for entry in sorted(node.table, key=lambda e: e.address):
            digest.update(f"{entry.address},{entry.via},{entry.metric},{entry.role};".encode())
    return digest.hexdigest()


def fingerprint(harness: Harness, outcome: Outcome) -> Dict[str, object]:
    """Simulated behaviour in a few numbers; a change that only makes the
    program faster leaves every one of them equal."""
    net = harness.net
    return {
        "frames": net.total_frames_sent(),
        "bytes": net.total_bytes_sent(),
        "convergence_s": outcome.convergence_s,
        "delivered": outcome.deliveries.count() if outcome.deliveries is not None else 0,
        "routes_sha256": routing_digest(net),
    }


def counters(harness: Harness, outcome: Outcome) -> Dict[str, float]:
    """The program's public counters, summed over nodes, by layer."""
    net = harness.net
    nodes = net.nodes

    def total(get) -> int:
        return sum(get(node) for node in nodes)

    outcomes = net.medium.outcome_counts()
    out: Dict[str, float] = {
        "sim.events": net.sim.events_fired,
        "medium.frames": net.medium.transmissions_total,
        "medium.rx_delivered": outcomes[DropReason.DELIVERED],
        "medium.rx_collision": outcomes[DropReason.COLLISION],
        "medium.rx_culled": outcomes[DropReason.BELOW_SENSITIVITY],
        "radio.crc_failed": total(lambda n: n.radio.frames_crc_failed),
        "net.routing.routes_removed": net.trace.count(EventKind.ROUTE_REMOVED),
        "net.routing.table_rows": total(lambda n: n.table.size),
        "net.mesher.cad_deferrals": total(lambda n: n.stats.cad_deferrals),
        "net.mesher.duty_deferrals": total(lambda n: n.stats.duty_deferrals),
        "net.queues.drops": total(lambda n: n.send_queue.dropped),
        "net.forwarding.forwarded": total(lambda n: n.stats.data_forwarded),
        "net.forwarding.no_route": total(lambda n: n.stats.no_route_drops),
        "net.forwarding.overheard": total(lambda n: n.stats.overheard),
        "net.reliable.singles_sent": total(lambda n: n.reliable.singles_sent),
        "net.reliable.retransmissions": total(lambda n: n.reliable.retransmissions),
        "net.reliable.local_defers": total(lambda n: n.reliable.local_defers),
        "net.reliable.duplicates_suppressed": total(lambda n: n.reliable.duplicates_suppressed),
        "net.stream.opened": 0,
        "net.stream.reset": 0,
        "net.stream.open_wait_p99_s": 0.0,
        "obs.store.events": harness.store_events,
        "verify.audits": harness.checker.audits_run if harness.checker is not None else 0,
        "verify.violations": len(harness.checker.violations) if harness.checker is not None else 0,
    }
    engine, log = harness.engine, outcome.deliveries
    if engine is not None:
        out["net.stream.opened"] = engine.stream_counter_total("streams_opened")
        out["net.stream.reset"] = engine.stream_counter_total("streams_reset")
        waits = [
            state.first_send_at - log.due_s(state.spec, 0)
            for state in engine.flows.values()
            if state.first_send_at is not None
        ]
        if waits:
            out["net.stream.open_wait_p99_s"] = percentile(waits, 99)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


class HostSpeed:
    """Times a fixed pure-Python job to tell how fast the host runs now.

    Host times on a shared machine drift by up to 2x within minutes as
    neighbours load the same cores and memory; every host time the
    benchmark reports is scaled by ``REFERENCE_S / job time`` measured
    next to it.  The job uses no program code, so a change to the program
    cannot move it; it mixes what the simulator's hot paths do (slotted
    objects, dict counters, a heap of tuples) over a few MB."""

    #: Job seconds at the reference speed (a 2-core Xeon container
    #: running alone).
    REFERENCE_S = 0.05
    JOBS = 4

    def __init__(self) -> None:
        rng = random.Random(1)
        self._slots = [_Slot(i, rng.random()) for i in range(50_000)]
        self._order = [rng.randrange(50_000) for _ in range(40_000)]

    def _job(self) -> float:
        heap: List[Tuple[float, int]] = []
        counts: Dict[int, int] = {}
        total = 0.0
        slots = self._slots
        for step, index in enumerate(self._order):
            slot = slots[index]
            slot.value = slot.value * 0.5 + 0.25
            heapq.heappush(heap, (slot.value, step))
            if len(heap) > 64:
                total += heapq.heappop(heap)[0]
            counts[index & 1023] = counts.get(index & 1023, 0) + 1
        return total

    def scale(self) -> float:
        """Reference speed over current speed, from ``JOBS`` timed jobs."""
        start = time.perf_counter()
        for _ in range(self.JOBS):
            self._job()
        return self.REFERENCE_S * self.JOBS / (time.perf_counter() - start)


def evaluate(harness: Harness, outcome: Outcome) -> Dict[str, object]:
    """Check the outputs of one run and collect what its metrics pool.

    ``attempted``/``failed`` count the workload's operations: ordered
    node pairs to route on ``converge_n300``, planned messages on the
    flow workloads.  ``completed`` operations give the delivery ratio and
    the latency samples, so a flow whose stream never opened counts as
    undelivered.  ``op_airtime_s`` is the airtime those operations cost:
    the warm-up's on ``converge_n300``, the flow phase's on the soaks."""
    net = harness.net
    errors: List[str] = []
    if outcome.convergence_s is None:
        errors.append(f"no convergence within {WARMUP_TIMEOUT_S:.0f} s")
    if outcome.routes is not None:
        n = len(net)
        attempted = n * (n - 1)
        completed = sum(
            1 for node in net.nodes for other in net.nodes
            if other is not node and node.table.has_route(other.address)
        )
        if completed != attempted:
            errors.append(f"{attempted - completed} ordered pairs unrouted at the deadline")
        latencies = list(outcome.routes.first_routed.values())
        if len(latencies) != attempted:
            errors.append(f"{len(latencies)} of {attempted} pairs ever routed")
        op_airtime = outcome.control_airtime_s
    else:
        log = outcome.deliveries
        errors.extend(log.errors[:10])
        attempted = log.planned
        completed = log.count()
        if completed != harness.engine.messages_delivered:
            errors.append(
                f"flow engine counted {harness.engine.messages_delivered} deliveries, "
                f"streams handed over {completed}"
            )
        latencies = log.latencies_s
        op_airtime = outcome.flow_airtime_s
    if not latencies:
        errors.append("nothing delivered")
    violations: Dict[str, int] = {}
    if harness.checker is not None:
        violations = {k: v for k, v in sorted(harness.checker.violation_counts().items()) if v}
    return {
        "errors": errors,
        "attempted": attempted,
        "completed": completed,
        "latencies_s": latencies,
        "wall_s": outcome.wall_s,
        "convergence_s": outcome.convergence_s,
        "control_airtime_s": outcome.control_airtime_s,
        "op_airtime_s": op_airtime,
        "violations": violations,
        "fingerprint": fingerprint(harness, outcome),
        "counters": counters(harness, outcome),
    }
