"""Protocol-agnostic experiment execution.

:func:`run_protocol` is the one entry point every benchmark uses: it
builds the requested protocol stack over a placement, attaches probe
traffic and a :class:`~repro.metrics.collect.FlowRecorder`, runs the
scenario, and returns a :class:`RunResult` with the measurements every
table needs (PDR, latency, overhead, convergence time).

Because all four protocols run on the identical kernel/PHY/medium/radio
substrate, differences in the result rows isolate the protocol itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.aodv import AodvNetwork
from repro.baselines.flooding import FloodingNetwork
from repro.baselines.idealrouter import build_oracle_network
from repro.baselines.star import StarNetwork
from repro.metrics.collect import FlowRecorder, OverheadSummary, attach_recorder, overhead_summary
from repro.net.api import MeshNetwork, Network
from repro.net.config import MesherConfig
from repro.obs.instrument import instrument_flows, instrument_network
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.store import EventStore, StoreRecorder
from repro.phy.pathloss import PathLossModel, Position
from repro.sim.rng import RngRegistry
from repro.verify.faults import FaultInjector, FaultPlan
from repro.verify.invariants import InvariantChecker
from repro.workload.probes import PROBE_OVERHEAD
from repro.workload.traffic import PeriodicSender, PoissonSender


class Protocol(enum.Enum):
    """Which stack to run the scenario on."""

    MESH = "mesh"
    FLOODING = "flooding"
    STAR = "star"
    ORACLE = "oracle"
    AODV = "aodv"


@dataclass(frozen=True)
class TrafficSpec:
    """One probe flow, by placement index (resolved to addresses later)."""

    src_index: int
    dst_index: int
    period_s: float = 60.0
    payload_size: int = max(24, PROBE_OVERHEAD)
    poisson: bool = False

    def __post_init__(self) -> None:
        if self.src_index == self.dst_index:
            raise ValueError("a flow needs distinct endpoints")
        if self.period_s <= 0:
            raise ValueError("period must be positive")


@dataclass
class RunResult:
    """Everything a benchmark row is computed from."""

    protocol: Protocol
    recorder: FlowRecorder
    network: Optional[Network]
    duration_s: float
    convergence_time_s: Optional[float]
    overhead: OverheadSummary
    #: Populated when ``run_protocol(..., sample_period_s=...)`` was given:
    #: the sampler whose ring holds the run's health trajectory.
    sampler: Optional[TimeSeriesSampler] = None
    #: Populated when ``run_protocol(..., verify=True)`` was given: the
    #: invariant checker that audited the run (violations, observations).
    checker: Optional[InvariantChecker] = None
    #: Populated when ``run_protocol(..., store=...)`` was given: the
    #: path of the WAL-mode event store the run streamed into (serve it
    #: with ``repro serve`` or replay it with ``repro replay``).
    store_path: Optional[Path] = None
    #: Populated when ``run_protocol(..., shards=...)`` ran the scenario
    #: on the sharded multi-process runner: the merged
    #: :class:`~repro.sim.shard.ShardedRunResult` (fingerprint, per-shard
    #: load stats, boundary-traffic counts).  ``network`` is None on a
    #: sharded run — the mesh lived in worker processes.
    sharded: Optional[object] = None

    @property
    def pdr(self) -> float:
        """Aggregate packet-delivery ratio."""
        return self.recorder.aggregate_pdr()

    @property
    def mean_latency_s(self) -> Optional[float]:
        """Mean delivery latency across flows (None if nothing arrived)."""
        latencies = self.recorder.all_latencies()
        return sum(latencies) / len(latencies) if latencies else None

    @property
    def timeseries(self) -> Optional[Dict]:
        """JSON-ready sampled time series (None when sampling was off)."""
        return self.sampler.to_dict() if self.sampler is not None else None


def run_protocol(
    protocol: Protocol,
    positions: Sequence[Position],
    traffic: Sequence[TrafficSpec],
    *,
    duration_s: float,
    seed: int = 0,
    config: Optional[MesherConfig] = None,
    pathloss: Optional[PathLossModel] = None,
    converge_first: bool = True,
    converge_timeout_s: float = 3600.0,
    drain_s: float = 120.0,
    star_gateway_index: Optional[int] = None,
    sample_period_s: Optional[float] = None,
    verify: bool = False,
    verify_strict: Optional[bool] = None,
    verify_audit_period_s: float = 30.0,
    fault_plan: Optional[FaultPlan] = None,
    store: Optional[Union[str, Path]] = None,
    shards: int = 1,
    shard_workers: Optional[int] = None,
    shard_window_s: float = 1.0,
) -> RunResult:
    """Run one scenario and measure it.

    For MESH the network first runs until the routing tables converge
    (``converge_first``), then traffic flows for ``duration_s``, then a
    ``drain_s`` tail lets in-flight packets land.  FLOODING/STAR have no
    routing state and AODV discovers routes on demand, so all three skip
    the warm-up; ORACLE starts converged by construction.  Every stack
    runs on ``config``'s radio parameters and region.

    ``sample_period_s`` turns on the observability sampler: the run's
    health (coverage, frames, airtime, queue pressure, PDR, ...) is
    snapshotted every that many simulated seconds and returned on
    ``RunResult.sampler`` / ``RunResult.timeseries``.

    ``verify`` (MESH only) attaches an
    :class:`~repro.verify.invariants.InvariantChecker` to the network —
    every ``verify_audit_period_s`` simulated seconds the run's global
    protocol invariants are audited, with a final audit after the drain
    tail; the checker comes back on ``RunResult.checker``.
    ``verify_strict`` overrides the ``REPRO_STRICT_INVARIANTS``
    environment default.  ``fault_plan`` (MESH only) arms a
    deterministic :class:`~repro.verify.faults.FaultPlan` (crashes,
    blackouts, burst loss) before the scenario starts.

    ``store`` streams the run into a WAL-mode
    :class:`~repro.obs.store.EventStore` at that path: frames, route
    events, forwarding decisions, deliveries, invariant violations, and
    registry samples, queryable live by ``repro serve`` while the run
    executes.  Recording rides observer taps only, so the run's outcome
    is identical with the store on or off.  When ``sample_period_s`` is
    not given, a store run samples every 60 simulated seconds so
    dashboards get health trajectories.

    ``shards`` > 1 (MESH only) runs the scenario on the sharded
    multi-process runner (:func:`repro.sim.shard.run_sharded`): the
    placement is partitioned into spatial strips, each strip simulates
    in its own worker process (``shard_workers`` caps the process
    count), and boundary-crossing frames are exchanged at conservative
    ``shard_window_s`` barriers.  The merged result comes back on
    ``RunResult.sharded``; ``network`` is None on a sharded run.
    Samplers, stores and fault plans need the live in-process network
    and are rejected with ``shards > 1``.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if (verify or fault_plan is not None) and protocol is not Protocol.MESH:
        raise ValueError("verify/fault_plan require Protocol.MESH")
    if shards != 1 or shard_workers is not None:
        return _run_sharded_protocol(
            protocol, positions, traffic,
            duration_s=duration_s, seed=seed, config=config, pathloss=pathloss,
            converge_first=converge_first, converge_timeout_s=converge_timeout_s,
            drain_s=drain_s, sample_period_s=sample_period_s, verify=verify,
            verify_audit_period_s=verify_audit_period_s, fault_plan=fault_plan,
            store=store, shards=shards, shard_workers=shard_workers,
            shard_window_s=shard_window_s,
        )
    if store is not None and sample_period_s is None:
        sample_period_s = 60.0
    recorder = FlowRecorder()
    net = _build_network(
        protocol, positions, traffic, config=config, seed=seed, pathloss=pathloss,
        star_gateway_index=star_gateway_index,
    )
    sampler: Optional[TimeSeriesSampler] = None
    if sample_period_s is not None:
        registry = instrument_network(MetricsRegistry(), net)
        instrument_flows(registry, recorder)
        sampler = TimeSeriesSampler(net.sim, registry, period_s=sample_period_s)
        sampler.sample_now()  # t=0 baseline point
    checker: Optional[InvariantChecker] = None
    if verify:
        checker = InvariantChecker(
            net, audit_period_s=verify_audit_period_s, strict=verify_strict
        ).attach()
    if fault_plan is not None:
        FaultInjector(net, fault_plan, seed=seed).arm()
    event_store: Optional[EventStore] = None
    store_recorder: Optional[StoreRecorder] = None
    if store is not None:
        event_store = EventStore(store, mode="w")
        event_store.set_meta("protocol", protocol.value)
        event_store.set_meta("seed", seed)
        event_store.set_meta("n_nodes", len(positions))
        event_store.set_meta("duration_s", duration_s)
        store_recorder = StoreRecorder(event_store, net, sampler=sampler, checker=checker).attach()

    convergence: Optional[float] = None
    if protocol is Protocol.MESH:
        if converge_first:
            convergence = net.run_until_converged(timeout_s=converge_timeout_s)  # type: ignore[attr-defined]
            if store_recorder is not None and convergence is not None:
                store_recorder.mark("converged", convergence_s=convergence)
    elif protocol is not Protocol.ORACLE:
        convergence = 0.0  # no proactive routing state to build
    senders = _attach_traffic(net, traffic, recorder, seed)
    net.run(for_s=duration_s)
    for sender in senders:
        sender.stop()
    net.run(for_s=drain_s)

    if sampler is not None:
        sampler.stop()
        sampler.sample_now()  # end-of-run point after the drain tail
    if checker is not None:
        checker.audit()  # final sweep over the drained end state
    if store_recorder is not None:
        store_recorder.detach()
    if event_store is not None:
        event_store.close()

    return RunResult(
        protocol=protocol,
        recorder=recorder,
        network=net,
        duration_s=duration_s,
        convergence_time_s=convergence,
        overhead=overhead_summary(net.nodes, recorder, now=net.sim.now),
        sampler=sampler,
        checker=checker,
        store_path=Path(store) if store is not None else None,
    )


# ----------------------------------------------------------------------
# Sharded execution
# ----------------------------------------------------------------------
def _run_sharded_protocol(
    protocol: Protocol,
    positions: Sequence[Position],
    traffic: Sequence[TrafficSpec],
    *,
    duration_s: float,
    seed: int,
    config: Optional[MesherConfig],
    pathloss: Optional[PathLossModel],
    converge_first: bool,
    converge_timeout_s: float,
    drain_s: float,
    sample_period_s: Optional[float],
    verify: bool,
    verify_audit_period_s: float,
    fault_plan: Optional[FaultPlan],
    store: Optional[Union[str, Path]],
    shards: int,
    shard_workers: Optional[int],
    shard_window_s: float,
) -> RunResult:
    """Dispatch a MESH scenario to :func:`repro.sim.shard.run_sharded`
    and repackage the merged outcome as an ordinary :class:`RunResult`."""
    if protocol is not Protocol.MESH:
        raise ValueError("sharded execution supports Protocol.MESH only")
    if sample_period_s is not None or store is not None or fault_plan is not None:
        raise ValueError(
            "samplers, event stores and fault plans need the live "
            "in-process network; they are not supported with shards > 1"
        )
    # Imported here, not at module top: repro.sim.shard builds networks
    # and senders itself, and the eager import would be cyclic.
    from repro.sim.shard import run_sharded

    result = run_sharded(
        positions,
        shards=shards,
        config=config,
        seed=seed,
        workers=shard_workers,
        window_s=shard_window_s,
        converge=converge_first,
        converge_timeout_s=converge_timeout_s,
        duration_s=duration_s,
        drain_s=drain_s,
        traffic=list(traffic),
        verify=verify,
        verify_audit_period_s=verify_audit_period_s,
        pathloss=pathloss,
    )
    delivered_bytes = result.recorder.delivered_bytes()
    overhead = OverheadSummary(
        frames_sent=result.frames,
        bytes_sent=result.bytes,
        airtime_s=result.airtime_s,
        airtime_per_delivered_byte_ms=(
            result.airtime_s * 1000 / delivered_bytes if delivered_bytes else float("inf")
        ),
        duty_cycle_peak=0.0,  # per-node duty windows stay in the workers
    )
    return RunResult(
        protocol=protocol,
        recorder=result.recorder,
        network=None,
        duration_s=duration_s,
        convergence_time_s=result.convergence_s,
        overhead=overhead,
        checker=result.checker,
        sharded=result,
    )


# ----------------------------------------------------------------------
# Stack construction
# ----------------------------------------------------------------------
def _build_network(
    protocol: Protocol,
    positions: Sequence[Position],
    traffic: Sequence[TrafficSpec],
    *,
    config: Optional[MesherConfig],
    seed: int,
    pathloss: Optional[PathLossModel],
    star_gateway_index: Optional[int],
) -> Network:
    if protocol is Protocol.MESH:
        return MeshNetwork.from_positions(
            positions, config=config, seed=seed, pathloss=pathloss, trace_enabled=False
        )
    if protocol is Protocol.ORACLE:
        return build_oracle_network(positions, config=config, seed=seed, pathloss=pathloss)
    if protocol is Protocol.FLOODING:
        return FloodingNetwork(positions, config=config, seed=seed, pathloss=pathloss)
    if protocol is Protocol.AODV:
        return AodvNetwork(positions, config=config, seed=seed, pathloss=pathloss)
    # The star gateway defaults to the most central placement position —
    # the best case for the star — and must not source any flow.
    gateway_index = (
        star_gateway_index if star_gateway_index is not None else _central_index(positions)
    )
    used = {spec.src_index for spec in traffic} | {spec.dst_index for spec in traffic}
    if gateway_index in used:
        free = [i for i in range(len(positions)) if i not in used]
        if not free:
            raise ValueError("no placement position left for the star gateway")
        gateway_index = min(free, key=lambda i: _centrality_cost(positions, i))
    return StarNetwork(
        positions, config=config, seed=seed, pathloss=pathloss, gateway_index=gateway_index
    )


# ----------------------------------------------------------------------
# Placement helpers
# ----------------------------------------------------------------------
def _centrality_cost(positions: Sequence[Position], index: int) -> float:
    """Sum of distances from one position to all others (lower = central)."""
    x, y = positions[index]
    return sum(((x - px) ** 2 + (y - py) ** 2) ** 0.5 for px, py in positions)


def _central_index(positions: Sequence[Position]) -> int:
    """Index of the most central placement position."""
    return min(range(len(positions)), key=lambda i: _centrality_cost(positions, i))


# ----------------------------------------------------------------------
# Traffic attachment
# ----------------------------------------------------------------------
def _make_sender(sim, src_addr, dst_addr, send_fn, spec: TrafficSpec, recorder, rng):
    if spec.poisson:
        return PoissonSender(
            sim,
            src_addr,
            dst_addr,
            send_fn,
            mean_interval_s=spec.period_s,
            rng=rng,
            payload_size=spec.payload_size,
            listener=recorder,
        )
    return PeriodicSender(
        sim,
        src_addr,
        dst_addr,
        send_fn,
        period_s=spec.period_s,
        rng=rng,
        payload_size=spec.payload_size,
        listener=recorder,
    )


def _attach_traffic(net: Network, traffic, recorder, seed) -> List:
    rngs = RngRegistry(seed).fork("traffic")
    addresses = net.addresses
    for node in net.nodes:
        attach_recorder(recorder, node)
    # Mesh nodes name their datagram send after the firmware's API.
    send = "send_datagram" if isinstance(net, MeshNetwork) else "send"
    senders = []
    for i, spec in enumerate(traffic):
        src = addresses[spec.src_index]
        dst = addresses[spec.dst_index]
        send_fn = getattr(net.node(src), send)
        senders.append(
            _make_sender(net.sim, src, dst, send_fn, spec, recorder, rngs.stream(f"flow{i}"))
        )
    return senders


def all_pairs_traffic(
    n_nodes: int, *, period_s: float = 120.0, payload_size: int = 24, limit: Optional[int] = None
) -> List[TrafficSpec]:
    """Every ordered pair as a flow (optionally capped), for load tests."""
    specs = []
    for i in range(n_nodes):
        for j in range(n_nodes):
            if i != j:
                specs.append(
                    TrafficSpec(src_index=i, dst_index=j, period_s=period_s, payload_size=payload_size)
                )
    return specs[:limit] if limit is not None else specs


def endpoint_traffic(
    n_nodes: int, *, period_s: float = 60.0, payload_size: int = 24, bidirectional: bool = True
) -> List[TrafficSpec]:
    """The demo's flow: first node <-> last node across the mesh."""
    specs = [
        TrafficSpec(src_index=0, dst_index=n_nodes - 1, period_s=period_s, payload_size=payload_size)
    ]
    if bidirectional and n_nodes > 1:
        specs.append(
            TrafficSpec(
                src_index=n_nodes - 1, dst_index=0, period_s=period_s, payload_size=payload_size
            )
        )
    return specs
