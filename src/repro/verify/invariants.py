"""Global-view protocol invariant checking.

The simulator can see what no real deployment can: every routing table,
queue counter, and duty-cycle ledger at once.  :class:`InvariantChecker`
exploits that omniscience to audit the protocol's global invariants
while a scenario runs — as an *observer* tapping the node hooks
(``on_route_event``, ``on_forward_decision``, ``reliable.on_deliver``;
see :mod:`repro.sim.taps`) plus a periodic global audit.  It never
mutates protocol state, so an audited run is bit-identical to an
unaudited one.

Invariant classes
-----------------

``VIA_CONSISTENCY`` (hard)
    Every routing-table entry's next hop is a *current direct
    neighbour*.  Structural in this implementation: ``heard_from``
    precedes every merge, and expiry removes dependent routes with (or
    before) the neighbour entry, so the periodic audit — which runs
    between events, never mid-purge — must always find it true.

``METRIC_SANITY`` (hard bounds, graced monotonicity)
    Metrics sit in ``[1, max_metric]`` and ``metric == 1`` iff the
    entry is the direct route (``via == address``).  Monotonicity along
    the via chain (my metric should exceed my next hop's) is only
    *eventually* true in a distance-vector protocol — neighbours
    legitimately disagree between hellos — so non-monotone steps are
    counted as observations and violate only when one ``(node, dst)``
    pair stays non-monotone past the grace window.

``ROUTING_LOOP`` (graced)
    Following next hops from any node towards any destination must
    terminate.  Transient loops are *inherent* to RIP-style DV
    (count-to-infinity, bounded by ``max_metric`` and route expiry), so
    a cycle only violates when it persists past ``loop_grace_s`` —
    defaulted to the analytic settling bound
    ``max_metric * hello_period + route_timeout``.  Cycles towards
    destinations that are currently dead ("ghost" destinations) are
    pure convergence debris and are only ever counted.

``EXACTLY_ONCE`` (hard)
    The reliable transport never hands the application the same
    ``(src, seq_id)`` twice within its deduplication window.

``CONSERVATION`` (hard)
    Queue flow balance: ``enqueued_total == dequeued_total + len(q)``
    for every send queue and inbox, with all counters non-negative.
    A frame leaves a queue only by being popped (counted) or dropped at
    the door (counted) — nothing vanishes.

``DUTY_CYCLE`` (hard)
    No node's trailing-window airtime utilisation exceeds its regional
    cap.

``STREAM_ORDERING`` (hard)
    The connection-oriented stream layer delivers every stream's
    messages to the application strictly in order, exactly once, with no
    gaps: per ``(receiver, peer, stream id)`` the delivered message
    sequence is exactly 0, 1, 2, …  A stream-level duplicate drop is
    also a violation — it means the transport's exactly-once contract
    underneath broke.  Tap-driven via
    :attr:`~repro.net.stream.StreamManager.on_stream_event`; stream
    managers attached to nodes before :meth:`InvariantChecker.attach`
    are discovered automatically, later ones can be wired with
    :meth:`InvariantChecker.watch_stream_manager`.

Violations raise :class:`InvariantViolation` in strict mode (set
``REPRO_STRICT_INVARIANTS=1`` or pass ``strict=True``) and are always
collected on :attr:`InvariantChecker.violations` and exported through
the metrics registry as ``repro_verify_violations_total{invariant=…}``.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.net.mesher import MesherNode
from repro.net.reliable import ReliableTransport
from repro.sim.taps import Tap, tap

__all__ = [
    "Invariant",
    "Violation",
    "InvariantViolation",
    "InvariantChecker",
    "STRICT_ENV",
    "strict_from_env",
]

#: Environment variable that switches violations from counted to fatal.
STRICT_ENV = "REPRO_STRICT_INVARIANTS"


class Invariant(enum.Enum):
    """The seven audited invariant classes."""

    ROUTING_LOOP = "routing_loop"
    VIA_CONSISTENCY = "via_consistency"
    METRIC_SANITY = "metric_sanity"
    EXACTLY_ONCE = "exactly_once"
    CONSERVATION = "conservation"
    DUTY_CYCLE = "duty_cycle"
    STREAM_ORDERING = "stream_ordering"


@dataclass(frozen=True)
class Violation:
    """One confirmed invariant breach."""

    invariant: Invariant
    time: float  # simulated seconds
    node: Optional[int]  # offending node address, when attributable
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f" node 0x{self.node:04X}" if self.node is not None else ""
        return f"[t={self.time:.1f}s{where}] {self.invariant.value}: {self.detail}"


class InvariantViolation(AssertionError):
    """Raised in strict mode; carries the :class:`Violation`."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


def strict_from_env(default: bool = False) -> bool:
    """Whether ``REPRO_STRICT_INVARIANTS`` asks for fatal violations."""
    raw = os.environ.get(STRICT_ENV)
    if raw is None:
        return default
    return raw.strip().lower() not in ("", "0", "false", "no")


@dataclass
class _Persistence:
    """First-seen bookkeeping for graced (transient-tolerant) checks."""

    first_seen: float
    last_detail: str = ""


def _same_tables(kept: Optional[List[Tuple[MesherNode, object, int]]],
                tables: List[Tuple[MesherNode, object, int]]) -> bool:
    """Whether ``tables`` lists the same nodes, holding the same table
    objects at the same versions, as ``kept`` (objects compared by
    identity)."""
    return kept is not None and len(kept) == len(tables) and all(
        node is now_node and table is now_table and version == now_version
        for (node, table, version), (now_node, now_table, now_version) in zip(kept, tables)
    )


#: Exactly-once ledger size below which it is never swept.
_LEDGER_MIN_CAP = 4096

#: Fates of a next-hop chain towards one destination, as
#: :func:`_broken_chains` resolves them; the loop phase revisits the
#: last two.
_DELIVERED, _DEAD, _BREAK, _CYCLE = range(4)


def _chain_fate(
    address: int, via: int, dst: int, routes_of: Dict[int, dict], memo: Dict[int, int]
) -> int:
    """Fate of the chain leaving ``address`` through ``via`` towards
    ``dst``, recorded in ``memo`` for every node it passes.

    ``routes_of`` maps each live node's address to its route dict.
    Follows next hops until delivery, a dead hop, a hop without a route
    (a chain break), or a node whose fate ``memo`` holds.  Nodes on the
    path are marked ``_CYCLE`` while it is followed, so coming back to
    one resolves the cycle, and every node leading into it, as cycling.
    """
    path = [address]
    memo[address] = _CYCLE
    while via != dst:
        fate = memo.get(via)
        if fate is not None:
            break
        routes = routes_of.get(via)
        if routes is None:
            fate = _DEAD
            break
        entry = routes.get(dst)
        if entry is None:
            fate = _BREAK
            break
        path.append(via)
        memo[via] = _CYCLE
        via = entry.via
    else:
        fate = _DELIVERED
    for passed in path:
        memo[passed] = fate
    return fate


def _broken_chains(live: Dict[int, MesherNode]) -> List[Tuple[MesherNode, int, int]]:
    """Every (node, destination, fate) whose next-hop chain breaks or
    cycles, in node-major, destination-sorted order.

    Fates are resolved one destination at a time, each pair once: a
    node's fate is its next hop's, so the memo of one destination lets
    every chain stop at the first node already resolved.  Only the
    breaking and cycling pairs outlive their destination's memo.
    """
    routes_of = {address: node.table._routes for address, node in live.items()}
    destinations = set()
    for routes in routes_of.values():
        destinations.update(routes)
    broken = []
    for dst in destinations:
        memo: Dict[int, int] = {}
        for address, routes in routes_of.items():
            entry = routes.get(dst)
            if entry is None:
                continue
            fate = memo.get(address)
            if fate is None:
                via = entry.via
                fate = _DELIVERED if via == dst else memo.get(via)
                if fate is None:
                    fate = _chain_fate(address, via, dst, routes_of, memo)
                else:
                    memo[address] = fate
            if fate >= _BREAK:
                broken.append((address, dst, fate))
    rank = {address: i for i, address in enumerate(live)}
    broken.sort(key=lambda pair: (rank[pair[0]], pair[1]))
    return [(live[address], dst, fate) for address, dst, fate in broken]


class InvariantChecker:
    """Audits a :class:`~repro.net.api.MeshNetwork` against the global
    protocol invariants.

    Usage::

        checker = InvariantChecker(net, registry=registry)
        checker.attach()          # taps + periodic audit
        net.run(for_s=3600)
        checker.audit()           # one final audit
        checker.assert_clean()    # raise if anything broke

    ``strict`` defaults to the ``REPRO_STRICT_INVARIANTS`` environment
    variable; when true the first violation raises
    :class:`InvariantViolation` from inside the offending audit or tap.
    """

    def __init__(
        self,
        net,
        *,
        audit_period_s: float = 30.0,
        loop_grace_s: Optional[float] = None,
        strict: Optional[bool] = None,
        registry=None,
    ) -> None:
        if audit_period_s <= 0:
            raise ValueError("audit_period_s must be positive")
        self.net = net
        self.sim = net.sim
        self.audit_period_s = audit_period_s
        self.strict = strict_from_env() if strict is None else strict
        self.loop_grace_s = (
            loop_grace_s if loop_grace_s is not None else self._default_grace()
        )
        #: Any routing cycle necessarily contains a non-monotone metric
        #: step, so persistent non-monotonicity escalates on a longer
        #: fuse than the loop check — a real loop is reported as
        #: ROUTING_LOOP, and METRIC_SANITY only fires for non-monotone
        #: chains that never close into a cycle.
        self.monotone_grace_s = 2.0 * self.loop_grace_s
        self.violations: List[Violation] = []
        #: Optional observer called with every confirmed
        #: :class:`Violation` as it is recorded (before a strict-mode
        #: raise) — how the event store streams the violation feed.
        self.on_violation = None
        #: Transient/benign observation counts (convergence debris the
        #: checker tolerates but reports): keys include
        #: ``loop_transient``, ``loop_ghost``, ``non_monotone``,
        #: ``chain_break``, ``ping_pong``.
        self.observations: Dict[str, int] = {}
        self.audits_run = 0
        self._timer = None
        self._attached = False
        # Graced-state tracking across audits.
        self._loop_seen: Dict[Tuple[int, int], _Persistence] = {}
        self._monotone_seen: Dict[Tuple[int, int], _Persistence] = {}
        # Exactly-once ledger: (receiver, src, seq_id, kind) -> last time,
        # swept of out-of-window keys once it outgrows _deliveries_cap.
        self._deliveries: Dict[Tuple[int, int, int, str], float] = {}
        self._deliveries_cap = _LEDGER_MIN_CAP
        # Stream-ordering ledger: (receiver, peer, stream_id, side) ->
        # next expected message sequence.
        self._stream_next: Dict[Tuple[int, int, int, bool], int] = {}
        self._counters: Dict[Invariant, object] = {}
        self._taps: List[Tap] = []
        # (node, table, version) of each live node at the last complete
        # sweep that found nothing; None after any other sweep.
        self._clean: Optional[List[Tuple[MesherNode, object, int]]] = None
        if registry is not None:
            self.bind_registry(registry)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _default_grace(self) -> float:
        """Analytic DV settling bound over the attached nodes' configs.

        A stale route survives at most ``route_timeout`` without
        refreshes, and count-to-infinity climbs one metric step per
        hello round, so ``max_metric * hello_period + route_timeout``
        upper-bounds how long any transient cycle can legitimately live.
        """
        bound = 0.0
        for node in self.net.nodes:
            cfg = node.config
            bound = max(bound, cfg.max_metric * cfg.hello_period_s + cfg.route_timeout_s)
        return bound or 3600.0

    def bind_registry(self, registry) -> None:
        """Register ``repro_verify_*`` instruments on ``registry``."""
        for inv in Invariant:
            self._counters[inv] = registry.counter(
                "repro_verify_violations_total",
                labels={"invariant": inv.value},
                help="Confirmed protocol invariant violations",
            )
        registry.counter(
            "repro_verify_audits_total",
            fn=lambda: self.audits_run,
            help="Full invariant audits executed",
        )
        registry.gauge(
            "repro_verify_transient_loops",
            fn=lambda: len(self._loop_seen),
            help="Routing cycles currently inside the grace window",
        )
        registry.counter(
            "repro_verify_observations_total",
            fn=lambda: float(sum(self.observations.values())),
            help="Benign/transient observations (ghost loops, ping-pongs, ...)",
        )

    def attach(self) -> "InvariantChecker":
        """Install node taps and start the periodic audit timer."""
        if self._attached:
            return self
        self._attached = True
        for node in self.net.nodes:
            self._tap_node(node)
        self._timer = self.sim.periodic(
            self.audit_period_s, self.audit, label="invariant audit"
        )
        return self

    def detach(self) -> None:
        """Stop auditing and remove the taps."""
        if not self._attached:
            return
        self._attached = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for handle in self._taps:
            handle.remove()
        self._taps.clear()

    def _tap_node(self, node: MesherNode) -> None:
        self._taps += (
            tap(node, "on_route_event", partial(self._on_route_event, node)),
            tap(node, "on_forward_decision", partial(self._on_forward_decision, node)),
            tap(node.reliable, "on_deliver", partial(self._on_reliable_delivery, node)),
        )
        manager = getattr(node, "stream_manager", None)
        if manager is not None:
            self.watch_stream_manager(manager)

    def watch_stream_manager(self, manager) -> None:
        """Tap a :class:`~repro.net.stream.StreamManager` and audit its
        deliveries against STREAM_ORDERING until :meth:`detach`.

        Needed explicitly only for managers created after
        :meth:`attach`; pre-existing ones are discovered via the node's
        ``stream_manager`` attribute.
        """
        self._taps.append(
            tap(manager, "on_stream_event", partial(self._on_stream_event, manager._node.address))
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _observe(self, kind: str, count: int = 1) -> None:
        self.observations[kind] = self.observations.get(kind, 0) + count

    def _violate(self, invariant: Invariant, node: Optional[int], detail: str) -> None:
        violation = Violation(invariant, self.sim.now, node, detail)
        self.violations.append(violation)
        counter = self._counters.get(invariant)
        if counter is not None:
            counter.inc()
        if self.on_violation is not None:
            self.on_violation(violation)
        if self.strict:
            raise InvariantViolation(violation)

    # ------------------------------------------------------------------
    # Tap-driven (per-event) checks
    # ------------------------------------------------------------------
    def _on_route_event(self, node: MesherNode, kind: str, entry) -> None:
        if kind == "removed":
            # A vanished (node, dst) pair cannot stay non-monotone.
            self._monotone_seen.pop((node.address, entry.address), None)
            return
        self._check_entry_sanity(node, entry)

    def _check_entry_sanity(self, node: MesherNode, entry) -> None:
        max_metric = node.table.max_metric
        if not 1 <= entry.metric <= max_metric:
            self._violate(
                Invariant.METRIC_SANITY,
                node.address,
                f"route to 0x{entry.address:04X} has metric {entry.metric} "
                f"outside [1, {max_metric}]",
            )
        if (entry.metric == 1) != (entry.via == entry.address):
            self._violate(
                Invariant.METRIC_SANITY,
                node.address,
                f"route to 0x{entry.address:04X}: metric {entry.metric} with "
                f"via 0x{entry.via:04X} breaks metric==1 <=> direct",
            )

    def _on_forward_decision(self, node: MesherNode, packet, decision, previous_hop: int) -> None:
        if decision.ping_pong:
            self._observe("ping_pong")

    def _on_reliable_delivery(self, node: MesherNode, src: int, seq_id: int, kind: str) -> None:
        key = (node.address, src, seq_id, kind)
        now = self.sim.now
        last = self._deliveries.get(key)
        window = ReliableTransport.DEDUP_WINDOW_S
        if last is not None and now - last < window:
            self._violate(
                Invariant.EXACTLY_ONCE,
                node.address,
                f"duplicate {kind} delivery from 0x{src:04X} seq={seq_id} "
                f"({now - last:.1f}s after the first, window {window:.0f}s)",
            )
        self._deliveries[key] = now
        # Ledger hygiene: drop entries the transport itself has forgotten.
        # The cap doubles past what a sweep keeps, so a ledger of live
        # keys is swept O(log n) times, not once per delivery.
        if len(self._deliveries) > self._deliveries_cap:
            horizon = now - window
            self._deliveries = {
                k: t for k, t in self._deliveries.items() if t >= horizon
            }
            self._deliveries_cap = max(_LEDGER_MIN_CAP, 2 * len(self._deliveries))

    def _on_stream_event(
        self, receiver: int, kind: str, peer: int, stream_id: int, side: bool, msg_seq: int
    ) -> None:
        key = (receiver, peer, stream_id, side)
        if kind == "deliver":
            expected = self._stream_next.get(key, 0)
            if msg_seq != expected:
                what = "duplicate/regression" if msg_seq < expected else "gap"
                self._violate(
                    Invariant.STREAM_ORDERING,
                    receiver,
                    f"stream (peer=0x{peer:04X}, id={stream_id}) delivered "
                    f"seq {msg_seq}, expected {expected} ({what})",
                )
                # Resynchronise so counted mode reports each break once.
                self._stream_next[key] = max(expected, msg_seq + 1)
                return
            self._stream_next[key] = expected + 1
        elif kind == "duplicate":
            self._violate(
                Invariant.STREAM_ORDERING,
                receiver,
                f"stream (peer=0x{peer:04X}, id={stream_id}) dropped a "
                f"duplicate of seq {msg_seq} — the transport delivered it twice",
            )
        elif kind in ("open", "accept"):
            self._stream_next[key] = 0
        elif kind in ("close", "reset"):
            # Ids are reusable after teardown; a successor stream starts
            # its sequence space fresh.
            self._stream_next.pop(key, None)

    # ------------------------------------------------------------------
    # Periodic full audit
    # ------------------------------------------------------------------
    def audit(self) -> List[Violation]:
        """Run every global check once; returns violations found *by
        this call* (also appended to :attr:`violations`).

        A sweep reads every live node's whole table.  The table pass
        checks each (node, destination) entry once; the loop phase then
        resolves every pair's next-hop chain once, through a memo per
        destination, and revisits only the pairs whose chain breaks or
        cycles.  Both phases read nothing but the live nodes' tables, and
        a sweep that finds nothing leaves no live pair in either graced
        ledger.  So while the same live nodes hold the same tables at the
        same versions as at the last complete sweep that found nothing,
        a sweep would find nothing again and change nothing, and the
        audit skips both phases.  Conservation and duty are checked on
        every audit.
        """
        before = len(self.violations)
        live = {
            n.address: n
            for n in self.net.nodes
            if n.started and n.radio.powered
        }
        tables = [(node, node.table, node.table.version) for node in live.values()]
        if _same_tables(self._clean, tables):
            for node in live.values():
                self._audit_conservation(node)
                self._audit_duty(node)
        else:
            # Kept only once the sweep completes: a strict-mode raise
            # leaves None.
            self._clean = None
            found = False
            for node in live.values():
                found = self._audit_tables(node, live) or found
                self._audit_conservation(node)
                self._audit_duty(node)
            if not self._audit_loops(live) and not found:
                self._clean = tables
        self.audits_run += 1
        return self.violations[before:]

    def _audit_tables(self, node: MesherNode, live: Dict[int, MesherNode]) -> bool:
        """Per-entry checks in table order: sanity, via-consistency and
        monotonicity, building a violation only once a cheap test fails.
        Tables are read through their route dicts: the audit touches
        every pair, and the checker only reads.  Returns whether any
        entry failed a check."""
        found = False
        address = node.address
        routes = node.table._routes
        max_metric = node.table.max_metric
        monotone_seen = self._monotone_seen
        for dst in sorted(routes):
            entry = routes[dst]
            metric = entry.metric
            via = entry.via
            if not 1 <= metric <= max_metric or (metric == 1) != (via == dst):
                found = True
                self._check_entry_sanity(node, entry)
            # Via-consistency: next hop must be a live direct neighbour.
            via_entry = routes.get(via)
            if via_entry is None or via_entry.metric != 1 or via_entry.via != via_entry.address:
                found = True
                self._violate(
                    Invariant.VIA_CONSISTENCY,
                    address,
                    f"route to 0x{dst:04X} via 0x{via:04X}, "
                    "but the via is not a current direct neighbour",
                )
            elif metric > 1:
                # Graced monotonicity along the via chain.  A next hop
                # without a route is a chain break, which the loop phase
                # counts.
                via_node = live.get(via)
                downstream = None if via_node is None else via_node.table._routes.get(dst)
                if downstream is not None and downstream.metric >= metric:
                    found = True
                    self._non_monotone(node, entry, downstream)
                elif monotone_seen:
                    monotone_seen.pop((address, dst), None)
        return found

    def _non_monotone(self, node: MesherNode, entry, downstream) -> None:
        key = (node.address, entry.address)
        self._observe("non_monotone")
        now = self.sim.now
        state = self._monotone_seen.get(key)
        detail = (
            f"route to 0x{entry.address:04X}: metric {entry.metric} via "
            f"0x{entry.via:04X} whose own metric is {downstream.metric}"
        )
        if state is None:
            self._monotone_seen[key] = _Persistence(now, detail)
        elif now - state.first_seen > self.monotone_grace_s:
            self._violate(
                Invariant.METRIC_SANITY,
                node.address,
                f"{detail} — non-monotone for {now - state.first_seen:.0f}s "
                f"(grace {self.monotone_grace_s:.0f}s)",
            )
            del self._monotone_seen[key]

    def _audit_loops(self, live: Dict[int, MesherNode]) -> bool:
        """Count chain breaks and grade cycles, in node-major,
        destination-sorted order, for the pairs whose chain breaks or
        cycles.  Returns whether there was any."""
        now = self.sim.now
        seen_this_audit = set()
        broken = _broken_chains(live)
        for node, dst, fate in broken:
            if fate == _BREAK:
                # A downstream hop has no route: frames on that chain
                # drop, they do not loop.
                self._observe("chain_break")
                continue
            if dst not in live:
                # Ghost destination: the mesh is counting a dead node
                # to infinity — expected debris, never a violation.
                self._observe("loop_ghost")
                continue
            cycle = self._walk(node, dst, live)
            self._observe("loop_transient")
            key = (node.address, dst)
            seen_this_audit.add(key)
            state = self._loop_seen.get(key)
            detail = (
                f"cycle towards 0x{dst:04X}: "
                + " -> ".join(f"0x{a:04X}" for a in cycle)
            )
            if state is None:
                self._loop_seen[key] = _Persistence(now, detail)
            elif now - state.first_seen > self.loop_grace_s:
                self._violate(
                    Invariant.ROUTING_LOOP,
                    node.address,
                    f"{detail} — persisted {now - state.first_seen:.0f}s "
                    f"(grace {self.loop_grace_s:.0f}s)",
                )
                del self._loop_seen[key]
        # Cycles that healed since the last audit leave the ledger.
        for key in list(self._loop_seen):
            if key not in seen_this_audit:
                del self._loop_seen[key]
        return bool(broken)

    def _walk(
        self, origin: MesherNode, dst: int, live: Dict[int, MesherNode]
    ) -> List[int]:
        """Follow next hops from ``origin`` towards ``dst``, a chain
        :func:`_broken_chains` found cycling, and return the visited
        addresses with the first repeat last (the path the violation
        reports)."""
        visited = [origin.address]
        current = origin
        while True:
            next_hop = current.table.next_hop(dst)
            if next_hop in visited:
                visited.append(next_hop)
                return visited
            visited.append(next_hop)
            current = live[next_hop]

    def _audit_conservation(self, node: MesherNode) -> None:
        for label, queue in (("send_queue", node.send_queue), ("inbox", node.inbox)):
            enq = queue.enqueued_total
            deq = queue.dequeued_total
            depth = len(queue)
            if deq < 0 or enq < 0 or queue.dropped < 0 or deq > enq or enq != deq + depth:
                self._violate(
                    Invariant.CONSERVATION,
                    node.address,
                    f"{label} flow imbalance: enqueued={enq} != "
                    f"dequeued={deq} + depth={depth} (dropped={queue.dropped})",
                )

    def _audit_duty(self, node: MesherNode) -> None:
        cap = node.duty.region.duty_cycle
        utilisation = node.duty.window_utilisation(self.sim.now)
        if utilisation > cap + 1e-9:
            self._violate(
                Invariant.DUTY_CYCLE,
                node.address,
                f"duty-cycle utilisation {utilisation:.4f} exceeds the "
                f"{node.duty.region.name} cap {cap:.4f}",
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def violation_counts(self) -> Dict[str, int]:
        """Violations per invariant name (zero-filled)."""
        counts = {inv.value: 0 for inv in Invariant}
        for v in self.violations:
            counts[v.invariant.value] += 1
        return counts

    def summary(self) -> Dict[str, object]:
        """A JSON-friendly report of the run's verification state."""
        return {
            "audits": self.audits_run,
            "strict": self.strict,
            "loop_grace_s": self.loop_grace_s,
            "violations": self.violation_counts(),
            "violation_details": [str(v) for v in self.violations],
            "observations": dict(sorted(self.observations.items())),
        }

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolation` if any violation was seen."""
        if self.violations:
            raise InvariantViolation(self.violations[0])
