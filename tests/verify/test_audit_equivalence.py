"""The memoised audit against the per-origin walk it replaced.

:class:`WalkPerOriginChecker` keeps the audit as it was before chain
fates were memoised: the table pass calls ``_check_monotone`` per entry,
and the loop phase walks every (origin, destination) chain from scratch.
Both checkers audit the same planted tables — dead radios, foreign vias
and destinations, chain breaks, cycles, out-of-range metrics — three
times, with the clock moved past ``loop_grace_s`` so loops escalate, and
must leave identical observations, violations and graced-state ledgers.

:class:`SweepEveryAudit` is the reference for the skip: it sweeps on
every audit, while the checker skips the table and loop phases after a
complete sweep that found nothing, until a live node, a table object or
a table version changes.
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
    vias, some towards foreign destinations, metrics 0-20.

    Writes behind the change hook, so the per-event checks stay silent,
    but moves the table's version as every table change does."""
    pool = list(addresses) + list(FOREIGN)
    routes = node.table._routes
    routes.clear()
    node.table._version += 1
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
        node.table._version += 1
    checker = InvariantChecker(net, loop_grace_s=5.0, strict=False)
    checker.audit()
    assert checker.observations["loop_transient"] == 3
    assert checker._loop_seen[(a.address, d.address)].last_detail == (
        "cycle towards 0x0004: 0x0001 -> 0x0002 -> 0x0003 -> 0x0002"
    )


class SweepEveryAudit(InvariantChecker):
    """Reference: forgets the clean sweep, so every audit sweeps."""

    def audit(self):
        self._clean = None
        return super().audit()


def counting_sweeps(checker):
    """The set of ``checker``'s audits, numbered from 0, that swept the
    tables rather than skipping them."""
    audits, swept = [], set()
    audit, audit_tables = checker.audit, checker._audit_tables

    def counted_audit():
        audits.append(None)
        return audit()

    def counted_tables(node, live):
        swept.add(len(audits) - 1)
        return audit_tables(node, live)

    checker.audit = counted_audit
    checker._audit_tables = counted_tables
    return swept


def checker_pair(net, strict=False):
    """A checker beside a reference that sweeps on every audit."""
    return (
        SweepEveryAudit(net, loop_grace_s=5.0, strict=strict),
        InvariantChecker(net, loop_grace_s=5.0, strict=strict),
    )


def plant_line(net):
    """Give every node the routes of a converged line in ``net.nodes``
    order: each other node, through the neighbour towards it, at its hop
    distance.  A sweep finds nothing in these tables."""
    nodes = net.nodes
    for i, node in enumerate(nodes):
        routes = node.table._routes
        routes.clear()
        node.table._version += 1
        for j, other in enumerate(nodes):
            if j != i:
                via = nodes[i + 1 if j > i else i - 1].address
                routes[other.address] = RouteEntry(other.address, via, abs(i - j), 0, net.sim.now)


def plant_foreign_row(node, now):
    """A route towards a foreign address through a foreign via, which
    the audit reports as a via-consistency violation."""
    node.table._routes[FOREIGN[0]] = RouteEntry(FOREIGN[0], FOREIGN[1], 2, 0, now)
    node.table._version += 1


def audit_alike(net, reference, checker, strict=False):
    """Move the clock 6 s, audit both, and compare their state."""
    net.sim.run(until=net.sim.now + 6.0)
    audit_both(reference, checker, strict)
    assert state_of(checker) == state_of(reference)


def test_only_a_clean_sweep_is_skipped_while_tables_hold():
    for seed in range(40):
        rng = random.Random(seed)
        net = quiet_mesh(6, seed)
        addresses = [node.address for node in net.nodes]
        for node in net.nodes:
            plant_table(node, rng, addresses, net.sim.now)
        reference, checker = checker_pair(net)
        sweeps = counting_sweeps(checker)
        # Tables with findings: every audit sweeps, and the clock passes
        # both grace windows, so graced findings escalate.
        for _ in range(3):
            audit_alike(net, reference, checker)
        assert reference.violations and reference.observations
        # Clean tables: the first audit sweeps, the next ones skip.
        plant_line(net)
        for _ in range(3):
            audit_alike(net, reference, checker)
        # A chain break is a loop-phase finding alone: the table phase
        # passes, and every audit sweeps again.
        breaks = reference.observations.get("chain_break", 0)
        middle = rng.choice(net.nodes[1:-1])
        del middle.table._routes[net.nodes[-1].address]
        middle.table._version += 1
        for _ in range(2):
            audit_alike(net, reference, checker)
        assert reference.observations["chain_break"] > breaks
        assert sweeps == {0, 1, 2, 3, 6, 7}


def test_a_radio_switched_off_or_on_changes_the_live_set():
    for seed in range(20):
        rng = random.Random(seed)
        net = quiet_mesh(6, seed)
        plant_line(net)
        first, second = rng.sample(net.nodes, 2)
        plant_foreign_row(first, net.sim.now)
        # Every table at one version: neither the versions of all nodes
        # nor those of the live ones tell the audits below apart.
        top = max(node.table.version for node in net.nodes)
        for node in net.nodes:
            node.table._version = top
        reference, checker = checker_pair(net)
        sweeps = counting_sweeps(checker)
        first.radio.power_off()
        audit_alike(net, reference, checker)
        audit_alike(net, reference, checker)
        assert not reference.violations
        # Same number of live nodes, same versions; only the live set
        # differs, and it puts the foreign row in the sweep.
        first.radio.power_on()
        second.radio.power_off()
        audit_alike(net, reference, checker)
        assert reference.violations
        second.radio.power_on()
        audit_alike(net, reference, checker)
        assert sweeps == {0, 2, 3}


def test_a_recovered_node_holds_a_new_table():
    for seed in range(20):
        rng = random.Random(seed)
        net = quiet_mesh(6, seed)
        plant_line(net)
        reference, checker = checker_pair(net)
        sweeps = counting_sweeps(checker)
        audit_alike(net, reference, checker)
        audit_alike(net, reference, checker)
        node = rng.choice(net.nodes)
        before = node.table
        node.fail()
        node.recover()
        node.hello.stop()
        plant_foreign_row(node, net.sim.now)
        # The fresh table at its predecessor's version: only the table
        # object tells the two apart.
        node.table._version = before.version
        assert node.table is not before
        audit_alike(net, reference, checker)
        assert reference.violations
        audit_alike(net, reference, checker)
        assert sweeps == {0, 2, 3}


def test_a_sweep_that_raised_is_not_kept():
    for bad in range(6):
        net = quiet_mesh(6, bad)
        plant_line(net)
        # The sweep raises at this node, after the tables before it
        # passed; the loop phase never runs.
        plant_foreign_row(net.nodes[bad], net.sim.now)
        reference, checker = checker_pair(net, strict=True)
        sweeps = counting_sweeps(checker)
        audit_alike(net, reference, checker, strict=True)
        assert len(reference.violations) == 1
        # Unchanged tables, now counted: the audit sweeps and finds the
        # row again.
        checker.strict = reference.strict = False
        audit_alike(net, reference, checker)
        audit_alike(net, reference, checker)
        assert len(reference.violations) == 3
        plant_line(net)
        audit_alike(net, reference, checker)
        audit_alike(net, reference, checker)
        assert sweeps == {0, 1, 2, 3}
