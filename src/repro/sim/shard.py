"""Sharded multi-process simulation with conservative time windows.

One mesh, many kernels: the placement is partitioned into spatial strips
(:class:`repro.medium.spatial.ShardPlan`, snapped to the medium's grid
cells), each strip runs the ordinary :class:`~repro.sim.kernel.Simulator`
over its own :class:`~repro.net.api.MeshNetwork`, and the strips advance
in lock-step windows of ``window_s`` simulated seconds.  At every window
barrier, transmissions whose audible disk crossed a strip boundary are
exchanged (over pipes when shards live in worker processes) and re-aired
into the neighbouring strips as *ghost* frames via
:meth:`~repro.medium.channel.Medium.inject_external`.

Windowed visibility semantics
-----------------------------
LoRa gives no usable conservative lookahead for carrier sensing: a frame
is audible the instant ``transmit`` is called, and CSMA backoff can draw
zero slots, so a cross-strip frame *cannot* influence a peer strip's CAD
within the window it was sent — only from the next barrier on.  The
sharded runner therefore defines its semantics explicitly: cross-shard
transmissions become visible exactly one window late — each ghost is
re-aired with its original payload/params at ``start + window``, so the
batch keeps its in-window spacing instead of piling onto the barrier
instant and colliding with itself.  What stays bit-exact, and is
asserted by tests and CI:

* ``shards=1`` reproduces the serial run exactly (same kernel calls,
  same convergence checks, identical result fingerprint);
* for a fixed ``(shards, window_s)``, the result fingerprint is
  identical for **any** worker count — partitioning decides semantics,
  processes only decide wall-clock;
* placements whose strips are RF-isolated (no audible disk crosses a
  cut) reproduce the serial per-node fingerprints exactly, because no
  ghost is ever exchanged.

For connected meshes with ``shards > 1``, window-delayed visibility is a
(deterministic) model change whose drift is measured and documented in
``docs/performance.md`` — hello periods are O(minutes) while windows are
O(seconds), so routing-level behaviour is essentially unchanged.

Determinism rides the existing seed scheme: per-node RNG streams are
named by address (``mesher.0x0001``), so a shard-subset network draws
bit-identical streams to the whole-mesh network, and ghost batches are
injected in sorted ``(start, sender_id)`` order so exchange order never
depends on worker scheduling.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.medium.spatial import ShardPlan, plan_strips
from repro.metrics.collect import FlowRecorder, attach_recorder
from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.phy import batch as _batch
from repro.phy.link import LinkBudget
from repro.phy.modulation import LoRaParams
from repro.phy.pathloss import LogDistancePathLoss, PathLossModel, Position
from repro.sim.rng import RngRegistry
from repro.sim.taps import tap
from repro.workload.traffic import PeriodicSender, PoissonSender

__all__ = [
    "BoundaryFrame",
    "ShardStats",
    "ShardedInvariantReport",
    "ShardedRunResult",
    "make_plan",
    "network_fingerprint",
    "run_sharded",
]


# ----------------------------------------------------------------------
# Wire records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BoundaryFrame:
    """One boundary-crossing transmission, as exchanged between shards.

    ``targets`` names every strip (other than the origin) whose
    x-interval intersects the frame's audible disk; the coordinator
    fans the frame out to exactly those strips.
    """

    start: float
    sender_id: int
    position: Position
    params: LoRaParams
    payload: bytes
    airtime: float
    origin_shard: int
    targets: Tuple[int, ...]


@dataclass
class ShardStats:
    """Per-shard load/traffic accounting for one sharded run."""

    shard: int
    nodes: int
    windows: int = 0
    events: int = 0
    frames_sent: int = 0
    bytes_sent: int = 0
    airtime_s: float = 0.0
    exports_sent: int = 0
    ghosts_received: int = 0
    #: Wall-clock seconds spent executing this shard's windows.
    busy_s: float = 0.0
    #: Wall-clock seconds the owning worker spent blocked at barriers
    #: (zero when shards run in-process).
    barrier_wait_s: float = 0.0


class ShardedInvariantReport:
    """Cross-shard aggregation of per-shard invariant checkers.

    Mirrors the result surface of
    :class:`repro.verify.invariants.InvariantChecker` (``violations``,
    ``violation_counts``, ``summary``, ``assert_clean``) so callers that
    consume ``RunResult.checker`` work unchanged on sharded runs.
    """

    def __init__(self) -> None:
        self.audits_run = 0
        self.violations: List[str] = []
        self._counts: Dict[str, int] = {}
        self.observations: Dict[str, int] = {}

    def absorb(self, summary: Dict[str, object]) -> None:
        """Fold one shard checker's ``summary()`` dict into the report."""
        self.audits_run += int(summary.get("audits", 0))
        for name, count in summary.get("violations", {}).items():  # type: ignore[union-attr]
            self._counts[name] = self._counts.get(name, 0) + int(count)
        self.violations.extend(summary.get("violation_details", ()))  # type: ignore[arg-type]
        for name, count in summary.get("observations", {}).items():  # type: ignore[union-attr]
            self.observations[name] = self.observations.get(name, 0) + int(count)

    def violation_counts(self) -> Dict[str, int]:
        """Violations per invariant name, summed over every shard."""
        return dict(self._counts)

    def summary(self) -> Dict[str, object]:
        """A JSON-friendly aggregate report."""
        return {
            "audits": self.audits_run,
            "violations": self.violation_counts(),
            "violation_details": list(self.violations),
            "observations": dict(sorted(self.observations.items())),
        }

    def assert_clean(self) -> None:
        """Raise ``AssertionError`` if any shard recorded a violation."""
        if self.violations:
            raise AssertionError(self.violations[0])


# ----------------------------------------------------------------------
# Result fingerprints
# ----------------------------------------------------------------------
def table_digest(table) -> str:
    """SHA-256 over the sorted structural rows of one routing table.

    Rows are ``(destination, via, metric, role)`` in address order —
    the fields the protocol's forwarding behaviour depends on.  Refresh
    timestamps are excluded deliberately: they carry float formatting
    noise without adding routing information.
    """
    h = hashlib.sha256()
    for entry in table:
        h.update(f"{entry.address}:{entry.via}:{entry.metric}:{entry.role};".encode())
    return h.hexdigest()


def _combine_fingerprint(frames: int, bytes_sent: int, tables: Dict[int, str]) -> str:
    h = hashlib.sha256()
    h.update(f"frames={frames};bytes={bytes_sent};".encode())
    for address in sorted(tables):
        h.update(f"{address}={tables[address]};".encode())
    return h.hexdigest()


def network_fingerprint(net: MeshNetwork, convergence_s: Optional[float] = None) -> Dict:
    """The result fingerprint of a (serial) network — the same structure
    :func:`run_sharded` reports, so serial and sharded runs compare with
    plain ``==``."""
    tables = {node.address: table_digest(node.table) for node in net.nodes}
    frames = net.total_frames_sent()
    bytes_sent = net.total_bytes_sent()
    return {
        "frames": frames,
        "bytes": bytes_sent,
        "tables": tables,
        "digest": _combine_fingerprint(frames, bytes_sent, tables),
        "convergence_s": convergence_s,
    }


# ----------------------------------------------------------------------
# Plan construction
# ----------------------------------------------------------------------
def make_plan(
    positions: Sequence[Position],
    shards: int,
    *,
    config: Optional[MesherConfig] = None,
    pathloss: Optional[PathLossModel] = None,
) -> ShardPlan:
    """A strip partition sized to the configuration's radio range.

    The strip cell size is the conservative maximum communication range
    of the configured modulation under the path-loss model — the same
    radius the medium's spatial grid uses — so "audible disk crosses a
    cut" is decidable from geometry alone.
    """
    params = (config or MesherConfig()).lora
    budget = LinkBudget(pathloss if pathloss is not None else LogDistancePathLoss())
    radius = _batch.max_range_m(budget, params)
    if radius is None:
        raise ValueError(
            "the path-loss model cannot bound its communication range; "
            "sharding needs a finite audible radius"
        )
    return plan_strips(positions, shards, radius)


# ----------------------------------------------------------------------
# One shard (runs inside a worker, or in-process)
# ----------------------------------------------------------------------
class _ShardSim:
    """One strip's network plus its window/exchange machinery."""

    def __init__(
        self,
        index: int,
        plan: ShardPlan,
        all_positions: Sequence[Position],
        all_addresses: Sequence[int],
        owned_indices: Sequence[int],
        *,
        config: Optional[MesherConfig],
        seed: int,
        pathloss: Optional[PathLossModel],
        verify: bool,
        verify_audit_period_s: float,
    ) -> None:
        self.index = index
        self.plan = plan
        self.all_addresses = list(all_addresses)
        self.seed = seed
        self.stats = ShardStats(shard=index, nodes=len(owned_indices))
        self._owner_of_index = {i: plan.shard_of(all_positions[i]) for i in range(len(all_positions))}
        self._exports: List[BoundaryFrame] = []
        self._senders: List = []
        self._prev_window_start = 0.0
        self.checker = None
        if not owned_indices:
            self.net: Optional[MeshNetwork] = None
            return
        self.net = MeshNetwork.from_positions(
            [all_positions[i] for i in owned_indices],
            config=config,
            seed=seed,
            pathloss=pathloss,
            addresses=[all_addresses[i] for i in owned_indices],
            trace_enabled=False,
        )
        tap(self.net.medium, "on_transmit_start", self._on_transmit_start)
        if verify:
            from repro.verify.invariants import InvariantChecker

            self.checker = InvariantChecker(
                self.net, audit_period_s=verify_audit_period_s, strict=False
            ).attach()

    # -- boundary export -----------------------------------------------
    def _on_transmit_start(self, tx) -> None:
        radius = self.net.medium.max_range_m(tx.params)  # type: ignore[union-attr]
        if radius is None:
            targets = tuple(i for i in range(self.plan.shards) if i != self.index)
        else:
            overlapped = self.plan.shards_overlapping(tx.position, radius)
            if len(overlapped) == 1:
                return  # interior frame: the overwhelmingly common case
            targets = tuple(i for i in overlapped if i != self.index)
        if not targets:
            return
        self._exports.append(
            BoundaryFrame(
                start=tx.start,
                sender_id=tx.sender_id,
                position=tx.position,
                params=tx.params,
                payload=tx.payload,
                airtime=tx.airtime,
                origin_shard=self.index,
                targets=targets,
            )
        )

    # -- window stepping -----------------------------------------------
    def step(
        self, barrier: float, ghosts: Sequence[BoundaryFrame]
    ) -> List[BoundaryFrame]:
        """Inject this window's ghosts, run to ``barrier``, and return
        the boundary frames this shard aired during the window."""
        t0 = perf_counter()
        if self.net is None:
            self.stats.windows += 1
            return []
        medium = self.net.medium
        sim = self.net.sim
        now = sim.now
        prev_start = self._prev_window_start
        for frame in ghosts:
            # Re-air exactly one window after the original start: the
            # frame was sent at ``start`` inside the window
            # [prev_start, now), so ``now + (start - prev_start)`` lands
            # in the window we are about to run with every in-window
            # offset preserved.  Injecting the whole batch at the
            # barrier instant instead would pile all boundary frames
            # onto one instant and make them collide with each other —
            # a drift measured at +362% frames on the E4 n=100 point
            # versus well under 1% for offset-preserving re-air.
            sim.schedule(
                max(0.0, frame.start - prev_start),
                lambda f=frame: medium.inject_external(
                    f.sender_id, f.position, f.params, f.payload, f.airtime
                ),
            )
        self.stats.ghosts_received += len(ghosts)
        self._prev_window_start = now
        self.stats.events += self.net.sim.advance_to(barrier)
        self.stats.windows += 1
        exports, self._exports = self._exports, []
        self.stats.exports_sent += len(exports)
        self.stats.busy_s += perf_counter() - t0
        return exports

    # -- convergence ----------------------------------------------------
    def converged_global(self) -> bool:
        """Whether every local node routes to every node of the whole
        mesh (the shard-local conjunct of global convergence)."""
        if self.net is None:
            return True
        if self.plan.shards == 1:
            # Single strip: defer to the serial implementation verbatim,
            # so shards=1 cannot diverge from MeshNetwork.converged().
            return self.net.converged()
        live = [n for n in self.net.nodes if n.radio.powered and n.started]
        needed = len(self.all_addresses) - 1
        for node in live:
            if node.table.size < needed:
                return False
        for node in live:
            for address in self.all_addresses:
                if address != node.address and not node.table.has_route(address):
                    return False
        return True

    # -- traffic --------------------------------------------------------
    def attach_traffic(self, traffic: Sequence, recorder: FlowRecorder) -> None:
        """Attach the flows whose *source* lives on this shard (global
        flow indices keep the RNG streams identical to a serial run)."""
        if self.net is None:
            return
        for node in self.net.nodes:
            attach_recorder(recorder, node)
        rngs = RngRegistry(self.seed).fork("traffic")
        for i, spec in enumerate(traffic):
            if self._owner_of_index[spec.src_index] != self.index:
                continue
            src = self.all_addresses[spec.src_index]
            dst = self.all_addresses[spec.dst_index]
            node = self.net.node(src)
            rng = rngs.stream(f"flow{i}")
            if spec.poisson:
                sender = PoissonSender(
                    self.net.sim, src, dst, node.send_datagram,
                    mean_interval_s=spec.period_s, rng=rng,
                    payload_size=spec.payload_size, listener=recorder,
                )
            else:
                sender = PeriodicSender(
                    self.net.sim, src, dst, node.send_datagram,
                    period_s=spec.period_s, rng=rng,
                    payload_size=spec.payload_size, listener=recorder,
                )
            self._senders.append(sender)

    def stop_traffic(self) -> None:
        for sender in self._senders:
            sender.stop()
        self._senders = []

    # -- completion -----------------------------------------------------
    def finish(self) -> Dict:
        """Final audit + the shard's contribution to the merged result."""
        stats = self.stats
        if self.net is None:
            return {"stats": stats, "tables": {}, "checker": None, "frames": 0,
                    "bytes": 0, "airtime_s": 0.0}
        if self.checker is not None:
            self.checker.audit()
        stats.frames_sent = self.net.total_frames_sent()
        stats.bytes_sent = self.net.total_bytes_sent()
        stats.airtime_s = self.net.total_airtime_s()
        return {
            "stats": stats,
            "tables": {node.address: table_digest(node.table) for node in self.net.nodes},
            "checker": self.checker.summary() if self.checker is not None else None,
            "frames": stats.frames_sent,
            "bytes": stats.bytes_sent,
            "airtime_s": stats.airtime_s,
        }


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
@dataclass
class _WorkerSpec:
    """Everything a worker needs to build its shards (must pickle)."""

    plan: ShardPlan
    positions: List[Position]
    addresses: List[int]
    owned: Dict[int, List[int]]  # shard index -> position indices
    config: Optional[MesherConfig]
    seed: int
    pathloss: Optional[PathLossModel]
    traffic: List
    verify: bool
    verify_audit_period_s: float


def _worker_main(conn, spec: _WorkerSpec) -> None:
    """Worker loop: build owned shards, then obey barrier commands."""
    try:
        shards = [
            _ShardSim(
                index,
                spec.plan,
                spec.positions,
                spec.addresses,
                indices,
                config=spec.config,
                seed=spec.seed,
                pathloss=spec.pathloss,
                verify=spec.verify,
                verify_audit_period_s=spec.verify_audit_period_s,
            )
            for index, indices in sorted(spec.owned.items())
        ]
        recorder = FlowRecorder()
        conn.send(("ready", None))
        wait_started = perf_counter()
        while True:
            message = conn.recv()
            waited = perf_counter() - wait_started
            for shard in shards:
                shard.stats.barrier_wait_s += waited / max(1, len(shards))
            command = message[0]
            if command == "step":
                _, barrier, ghosts_by_shard, check = message
                exports: List[BoundaryFrame] = []
                converged = True
                for shard in shards:
                    exports.extend(
                        shard.step(barrier, ghosts_by_shard.get(shard.index, ()))
                    )
                    if check and converged:
                        converged = shard.converged_global()
                conn.send(("stepped", exports, converged if check else None))
            elif command == "attach_traffic":
                for shard in shards:
                    shard.attach_traffic(spec.traffic, recorder)
                conn.send(("ok", None))
            elif command == "stop_traffic":
                for shard in shards:
                    shard.stop_traffic()
                conn.send(("ok", None))
            elif command == "finish":
                conn.send(("finished", ([shard.finish() for shard in shards], recorder)))
                return
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown shard command {command!r}")
            wait_started = perf_counter()
    except Exception:  # pragma: no cover - surfaced by the coordinator
        import traceback

        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Shard groups: uniform stepping over in-process and piped shards
# ----------------------------------------------------------------------
class _LocalGroup:
    """Shards executed inline (workers <= 1): zero IPC, same protocol."""

    def __init__(self, spec: _WorkerSpec) -> None:
        self.shards = [
            _ShardSim(
                index, spec.plan, spec.positions, spec.addresses, indices,
                config=spec.config, seed=spec.seed, pathloss=spec.pathloss,
                verify=spec.verify, verify_audit_period_s=spec.verify_audit_period_s,
            )
            for index, indices in sorted(spec.owned.items())
        ]
        self.spec = spec
        self.recorder = FlowRecorder()

    def step(self, barrier, ghosts_by_shard, check):
        exports: List[BoundaryFrame] = []
        converged = True
        for shard in self.shards:
            exports.extend(shard.step(barrier, ghosts_by_shard.get(shard.index, ())))
            if check and converged:
                converged = shard.converged_global()
        return exports, (converged if check else None)

    def attach_traffic(self) -> None:
        for shard in self.shards:
            shard.attach_traffic(self.spec.traffic, self.recorder)

    def stop_traffic(self) -> None:
        for shard in self.shards:
            shard.stop_traffic()

    def finish(self):
        return [shard.finish() for shard in self.shards], self.recorder

    def close(self) -> None:
        pass


class _ProcessGroup:
    """Shards executed in one worker process, driven over a pipe."""

    def __init__(self, spec: _WorkerSpec, ctx) -> None:
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_worker_main, args=(child, spec), daemon=True)
        self.process.start()
        child.close()
        self._expect("ready")

    def _expect(self, kind: str):
        message = self._conn.recv()
        if message[0] == "error":
            raise RuntimeError(f"shard worker failed:\n{message[1]}")
        if message[0] != kind:  # pragma: no cover - protocol bug
            raise RuntimeError(f"expected {kind!r}, got {message[0]!r}")
        return message[1:]

    def step_send(self, barrier, ghosts_by_shard, check) -> None:
        self._conn.send(("step", barrier, ghosts_by_shard, check))

    def step_recv(self):
        exports, converged = self._expect("stepped")
        return exports, converged

    def attach_traffic(self) -> None:
        self._conn.send(("attach_traffic",))
        self._expect("ok")

    def stop_traffic(self) -> None:
        self._conn.send(("stop_traffic",))
        self._expect("ok")

    def finish(self):
        self._conn.send(("finish",))
        summaries, recorder = self._expect("finished")[0]
        return summaries, recorder

    def close(self) -> None:
        try:
            self._conn.close()
        finally:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=10.0)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class ShardedRunResult:
    """Merged outcome of one sharded run (fingerprint-compatible with a
    serial :func:`network_fingerprint`)."""

    shards: int
    workers: int
    window_s: float
    plan: ShardPlan
    convergence_s: Optional[float]
    frames: int
    bytes: int
    airtime_s: float
    fingerprint: Dict
    stats: List[ShardStats]
    recorder: FlowRecorder
    checker: Optional[ShardedInvariantReport]
    sim_time_s: float
    wall_s: float

    @property
    def boundary_exports(self) -> int:
        """Boundary frames exported across all shards."""
        return sum(s.exports_sent for s in self.stats)

    @property
    def ghosts_injected(self) -> int:
        """Ghost frames injected across all shards."""
        return sum(s.ghosts_received for s in self.stats)

    def load_imbalance(self) -> float:
        """max/mean busy wall-clock over shards (1.0 = perfectly even)."""
        busy = [s.busy_s for s in self.stats if s.nodes]
        if not busy or not sum(busy):
            return 1.0
        return max(busy) / (sum(busy) / len(busy))


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
def run_sharded(
    positions: Sequence[Position],
    *,
    shards: int,
    config: Optional[MesherConfig] = None,
    seed: int = 0,
    workers: Optional[int] = None,
    window_s: float = 1.0,
    converge: bool = True,
    converge_timeout_s: float = 3600.0,
    check_period_s: float = 10.0,
    duration_s: float = 0.0,
    drain_s: float = 0.0,
    traffic: Sequence = (),
    verify: bool = False,
    verify_audit_period_s: float = 30.0,
    pathloss: Optional[PathLossModel] = None,
    addresses: Optional[Sequence[int]] = None,
    plan: Optional[ShardPlan] = None,
    extend_to_s: Optional[float] = None,
) -> ShardedRunResult:
    """Run one mesh partitioned into ``shards`` strips.

    ``workers`` caps the number of processes (default: one per shard;
    ``workers <= 1`` runs every shard in-process, which is the reference
    execution the multi-process path must reproduce bit-exactly).  The
    run first converges (unless ``converge=False``), then drives
    ``traffic`` for ``duration_s`` plus a ``drain_s`` tail — the same
    phase structure as :func:`repro.experiments.runner.run_protocol`.

    ``check_period_s`` must be an integer multiple of ``window_s``;
    convergence is evaluated at exactly the instants a serial
    ``run_until_converged`` would evaluate it, so ``shards=1`` returns
    the identical convergence time.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    if converge:
        ratio = check_period_s / window_s
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"check_period_s ({check_period_s}) must be an integer "
                f"multiple of window_s ({window_s})"
            )
    if plan is None:
        plan = make_plan(positions, shards, config=config, pathloss=pathloss)
    elif plan.shards != shards:
        raise ValueError(f"plan has {plan.shards} strips, expected {shards}")
    all_addresses = (
        list(addresses) if addresses is not None
        else [0x0001 + i for i in range(len(positions))]
    )
    owned_by_shard = {i: [] for i in range(shards)}
    for index, owner in enumerate(plan.partition(positions)):
        owned_by_shard[index] = owner

    n_workers = shards if workers is None else max(1, min(workers, shards))
    wall_start = perf_counter()

    # --- build groups (shard -> group round-robin by shard index) ------
    groups: List = []
    shard_group: Dict[int, int] = {}
    if n_workers <= 1 or shards == 1:
        n_workers = 1
        spec = _WorkerSpec(
            plan=plan, positions=list(positions), addresses=all_addresses,
            owned=owned_by_shard, config=config, seed=seed, pathloss=pathloss,
            traffic=list(traffic), verify=verify,
            verify_audit_period_s=verify_audit_period_s,
        )
        groups.append(_LocalGroup(spec))
        shard_group = {i: 0 for i in range(shards)}
    else:
        ctx = multiprocessing.get_context()
        for w in range(n_workers):
            owned = {i: owned_by_shard[i] for i in range(shards) if i % n_workers == w}
            spec = _WorkerSpec(
                plan=plan, positions=list(positions), addresses=all_addresses,
                owned=owned, config=config, seed=seed, pathloss=pathloss,
                traffic=list(traffic), verify=verify,
                verify_audit_period_s=verify_audit_period_s,
            )
            groups.append(_ProcessGroup(spec, ctx))
            for i in owned:
                shard_group[i] = w

    pending: Dict[int, List[BoundaryFrame]] = {}

    def route(exports: Sequence[BoundaryFrame]) -> None:
        for frame in exports:
            for target in frame.targets:
                pending.setdefault(target, []).append(frame)

    def step_all(barrier: float, check: bool) -> Optional[bool]:
        nonlocal pending
        ghosts_by_group: List[Dict[int, List[BoundaryFrame]]] = [
            {} for _ in groups
        ]
        for target, frames in pending.items():
            frames.sort(key=lambda f: (f.start, f.sender_id))
            ghosts_by_group[shard_group[target]][target] = frames
        pending = {}
        if len(groups) == 1:
            exports, converged = groups[0].step(barrier, ghosts_by_group[0], check)
            route(exports)
            return converged
        for group, ghosts in zip(groups, ghosts_by_group):
            group.step_send(barrier, ghosts, check)
        converged: Optional[bool] = True if check else None
        for group in groups:
            exports, group_conv = group.step_recv()
            route(exports)
            if check and not group_conv:
                converged = False
        return converged

    def run_phase(until: float) -> None:
        now = _clock[0]
        while now < until:
            barrier = min(now + window_s, until)
            step_all(barrier, check=False)
            now = barrier
        _clock[0] = now

    _clock = [0.0]
    convergence: Optional[float] = None
    try:
        # --- phase 1: convergence -------------------------------------
        if converge:
            per_check = round(check_period_s / window_s)
            deadline = _clock[0] + converge_timeout_s
            window_index = 0
            now = _clock[0]
            start = now
            while now < deadline:
                barrier = min(now + window_s, deadline)
                window_index += 1
                check = (window_index % per_check == 0) or barrier >= deadline
                converged = step_all(barrier, check)
                now = barrier
                if check and converged:
                    convergence = now - start
                    break
            _clock[0] = now

        # --- phase 2: traffic + drain ---------------------------------
        if duration_s > 0:
            for group in groups:
                group.attach_traffic()
            run_phase(_clock[0] + duration_s)
            for group in groups:
                group.stop_traffic()
            if drain_s > 0:
                run_phase(_clock[0] + drain_s)
        if extend_to_s is not None and _clock[0] < extend_to_s:
            # CLI semantics: keep the mesh running out to a total
            # simulated time regardless of when convergence landed.
            run_phase(extend_to_s)

        # --- collect ---------------------------------------------------
        recorder = FlowRecorder()
        summaries: List[Dict] = []
        for group in groups:
            group_summaries, group_recorder = group.finish()
            summaries.extend(group_summaries)
            recorder.merge_from(group_recorder)
    finally:
        for group in groups:
            group.close()

    stats = sorted((s["stats"] for s in summaries), key=lambda st: st.shard)
    frames = sum(s["frames"] for s in summaries)
    bytes_sent = sum(s["bytes"] for s in summaries)
    airtime = sum(s["airtime_s"] for s in summaries)
    tables: Dict[int, str] = {}
    for s in summaries:
        tables.update(s["tables"])
    checker: Optional[ShardedInvariantReport] = None
    if verify:
        checker = ShardedInvariantReport()
        for s in summaries:
            if s["checker"] is not None:
                checker.absorb(s["checker"])
    fingerprint = {
        "frames": frames,
        "bytes": bytes_sent,
        "tables": tables,
        "digest": _combine_fingerprint(frames, bytes_sent, tables),
        "convergence_s": convergence,
    }
    return ShardedRunResult(
        shards=shards,
        workers=n_workers,
        window_s=window_s,
        plan=plan,
        convergence_s=convergence,
        frames=frames,
        bytes=bytes_sent,
        airtime_s=airtime,
        fingerprint=fingerprint,
        stats=stats,
        recorder=recorder,
        checker=checker,
        sim_time_s=_clock[0],
        wall_s=perf_counter() - wall_start,
    )
