"""The memoised audit against the per-origin walk it replaced.

:class:`WalkPerOriginChecker` keeps the audit as it was before chain
fates were memoised: the table pass calls ``_check_monotone`` per entry,
and the loop phase walks every (origin, destination) chain from scratch.
Both checkers audit the same planted tables — dead radios, foreign vias
and destinations, chain breaks, cycles, out-of-range metrics — three
times, with the clock moved past ``loop_grace_s`` so loops escalate, and
must leave identical observations, violations and graced-state ledgers.
"""

import random

import pytest

from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.net.routing_table import RouteEntry
from repro.topology.placement import line_positions
from repro.verify import InvariantChecker, InvariantViolation
from repro.verify.invariants import Invariant, _Persistence

FAST = MesherConfig(hello_period_s=30.0, route_timeout_s=120.0, purge_period_s=15.0)
FOREIGN = (0x0BAD, 0x0BEE)  # addresses no node in the mesh has


class WalkPerOriginChecker(InvariantChecker):
    """Reference: one ``_walk`` per (origin, destination) pair."""

    def audit(self):
        before = len(self.violations)
        live = {
            n.address: n
            for n in self.net.nodes
            if n.started and n.radio.powered
        }
        for node in live.values():
            self._audit_tables(node, live)
            self._audit_conservation(node)
            self._audit_duty(node)
        self._audit_loops(live)
        self.audits_run += 1
        return self.violations[before:]

    def _audit_tables(self, node, live):
        table = node.table
        for entry in table:
            self._check_entry_sanity(node, entry)
            via_entry = table.get(entry.via)
            if via_entry is None or not via_entry.is_neighbour:
                self._violate(
                    Invariant.VIA_CONSISTENCY,
                    node.address,
                    f"route to 0x{entry.address:04X} via 0x{entry.via:04X}, "
                    "but the via is not a current direct neighbour",
                )
                continue
            if entry.metric > 1:
                self._check_monotone(node, entry, live)

    def _check_monotone(self, node, entry, live):
        key = (node.address, entry.address)
        via_node = live.get(entry.via)
        if via_node is None:
            self._monotone_seen.pop(key, None)
            return
        downstream = via_node.table.get(entry.address)
        if downstream is None:
            # A chain break: the walk below counts it.
            self._monotone_seen.pop(key, None)
            return
        if downstream.metric < entry.metric:
            self._monotone_seen.pop(key, None)
            return
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

    def _audit_loops(self, live):
        now = self.sim.now
        seen_this_audit = set()
        for node in live.values():
            for dst in node.table.destinations():
                cycle = self._walk(node, dst, live)
                if cycle is None:
                    continue
                if dst not in live:
                    self._observe("loop_ghost")
                    continue
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
        for key in list(self._loop_seen):
            if key not in seen_this_audit:
                del self._loop_seen[key]

    def _walk(self, origin, dst, live):
        visited = [origin.address]
        current = origin
        for _ in range(len(live) + 1):
            next_hop = current.table.next_hop(dst)
            if next_hop is None:
                if current is not origin:
                    self._observe("chain_break")
                return None
            if next_hop == dst:
                return None
            if next_hop in visited:
                visited.append(next_hop)
                return visited
            visited.append(next_hop)
            nxt = live.get(next_hop)
            if nxt is None:
                return None
            current = nxt
        return visited


def quiet_mesh(n, seed):
    """An ``n``-node line whose timers are disarmed: the clock can move
    without hellos or purges touching the planted tables."""
    net = MeshNetwork.from_positions(line_positions(n), config=FAST, seed=seed)
    for node in net.nodes:
        node.hello.stop()
    return net


def plant_table(node, rng, addresses, now):
    """Replace ``node``'s table with random rows: mostly direct
    neighbours and routes through them, some through foreign or absent
    vias, some towards foreign destinations, metrics 0-20."""
    pool = list(addresses) + list(FOREIGN)
    routes = node.table._routes
    routes.clear()
    neighbours = [a for a in pool if a != node.address and rng.random() < 0.4]
    for address in neighbours:
        routes[address] = RouteEntry(address, address, 1, 0, now)
    for dst in pool:
        if dst in routes or rng.random() < 0.25:
            continue
        if dst == node.address and rng.random() < 0.8:
            continue
        if neighbours and rng.random() < 0.8:
            via = rng.choice(neighbours)
        else:
            via = rng.choice(pool)
        metric = rng.randint(0, 20) if rng.random() < 0.2 else rng.randint(2, 6)
        routes[dst] = RouteEntry(dst, via, metric, 0, now)


def state_of(checker):
    return (
        list(checker.observations.items()),
        [str(v) for v in checker.violations],
        dict(checker._loop_seen),
        dict(checker._monotone_seen),
        checker.audits_run,
    )


def audit_both(reference, checker, strict):
    """One audit on each; in strict mode both must raise alike."""
    outcomes = []
    for each in (reference, checker):
        try:
            each.audit()
            outcomes.append(None)
        except InvariantViolation as exc:
            assert strict
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def run_seed(seed, strict=False):
    rng = random.Random(seed)
    net = quiet_mesh(rng.randint(3, 9), seed)
    addresses = [node.address for node in net.nodes]
    for node in net.nodes:
        plant_table(node, rng, addresses, net.sim.now)
    for node in rng.sample(net.nodes, rng.randint(0, 2)):
        node.radio.power_off()
    reference = WalkPerOriginChecker(net, loop_grace_s=5.0, strict=strict)
    checker = InvariantChecker(net, loop_grace_s=5.0, strict=strict)
    for round_ in range(3):
        if round_:
            net.sim.run(until=net.sim.now + 6.0)
            if rng.random() < 0.5:  # churn: one table changes between audits
                node = rng.choice(net.nodes)
                plant_table(node, rng, addresses, net.sim.now)
        audit_both(reference, checker, strict)
        assert state_of(checker) == state_of(reference)
    return reference


def test_memoised_audit_matches_per_origin_walks():
    seeds_with = {}
    for seed in range(300):
        reference = run_seed(seed)
        kinds = {kind for kind, count in reference.observations.items() if count}
        kinds.update(v.invariant.value for v in reference.violations)
        for kind in kinds:
            seeds_with[kind] = seeds_with.get(kind, 0) + 1
    # The planted tables must exercise every fate and escalation.
    for kind in ("chain_break", "loop_transient", "loop_ghost", "non_monotone",
                 "routing_loop", "metric_sanity", "via_consistency"):
        assert seeds_with.get(kind, 0) >= 20, (kind, seeds_with)


@pytest.mark.parametrize("seed", range(0, 400, 5))
def test_strict_raise_leaves_the_same_partial_state(seed):
    run_seed(seed, strict=True)


def test_cycle_detail_names_the_walked_path():
    net = quiet_mesh(4, 1)
    a, b, c, d = net.nodes
    now = net.sim.now
    # a -> b -> c -> b: a leads into the b/c cycle towards d.
    for node, via in ((a, b), (b, c), (c, b)):
        node.table._routes[via.address] = RouteEntry(via.address, via.address, 1, 0, now)
        node.table._routes[d.address] = RouteEntry(d.address, via.address, 3, 0, now)
    checker = InvariantChecker(net, loop_grace_s=5.0, strict=False)
    checker.audit()
    assert checker.observations["loop_transient"] == 3
    assert checker._loop_seen[(a.address, d.address)].last_detail == (
        "cycle towards 0x0004: 0x0001 -> 0x0002 -> 0x0003 -> 0x0002"
    )
