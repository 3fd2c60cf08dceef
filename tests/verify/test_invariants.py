"""Tests for the protocol invariant checker.

The flip tests are the checker's own verification: each invariant class
is deliberately broken once and strict mode must catch exactly that
class.  A checker that stays green on a healthy mesh but cannot see a
planted violation verifies nothing.
"""

import pytest

from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.net.routing_table import RouteEntry
from repro.obs.registry import MetricsRegistry
from repro.topology.placement import line_positions
from repro.verify import (
    Invariant,
    InvariantChecker,
    InvariantViolation,
    strict_from_env,
)

FAST = MesherConfig(hello_period_s=30.0, route_timeout_s=120.0, purge_period_s=15.0)


def converged_line(n=3, seed=5):
    net = MeshNetwork.from_positions(line_positions(n), config=FAST, seed=seed)
    assert net.run_until_converged(timeout_s=1200.0) is not None
    return net


def plant_route(node, *, address, via, metric, now):
    """Bypass the protocol and write a raw routing-table row (the only
    way to create states the implementation itself cannot reach).

    Deliberately skips the change hook so the planted inconsistency is
    first seen by the audit, not by the per-event checks.  It still
    moves the table's version, as every table change does, so the audit
    does not replay what it found in the table before."""
    node.table._routes[address] = RouteEntry(
        address=address, via=via, metric=metric, role=0, updated_at=now
    )
    node.table._version += 1


class TestLifecycle:
    def test_attach_is_idempotent_and_detach_restores_taps(self):
        net = converged_line()
        node = net.nodes[0]
        before = node.on_route_event
        checker = InvariantChecker(net, strict=False)
        checker.attach()
        checker.attach()
        assert node.on_route_event is not before or before is None
        checker.detach()
        assert node.on_route_event is before
        assert node.reliable.on_deliver is None

    def test_chains_existing_taps(self):
        net = converged_line()
        node = net.nodes[0]
        seen = []
        node.on_route_event = lambda kind, entry: seen.append(kind)
        checker = InvariantChecker(net, strict=False).attach()
        node.table.heard_from(0x00AA, now=net.sim.now)
        assert "added" in seen
        checker.detach()

    def test_audit_period_must_be_positive(self):
        net = converged_line()
        with pytest.raises(ValueError):
            InvariantChecker(net, audit_period_s=0.0)

    def test_default_grace_follows_config(self):
        net = converged_line()
        checker = InvariantChecker(net, strict=False)
        cfg = net.nodes[0].config
        assert checker.loop_grace_s == pytest.approx(
            cfg.max_metric * cfg.hello_period_s + cfg.route_timeout_s
        )

    def test_strict_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
        assert strict_from_env() is False
        monkeypatch.setenv("REPRO_STRICT_INVARIANTS", "1")
        assert strict_from_env() is True
        monkeypatch.setenv("REPRO_STRICT_INVARIANTS", "0")
        assert strict_from_env() is False


class TestHealthyMesh:
    def test_converged_line_audits_clean(self):
        net = converged_line(4)
        checker = InvariantChecker(net, strict=True).attach()
        net.run(for_s=600.0)
        found = checker.audit()
        assert found == []
        checker.assert_clean()
        assert checker.audits_run > 1  # periodic timer fired too

    def test_registry_binding_exports_counts(self):
        net = converged_line()
        registry = MetricsRegistry()
        checker = InvariantChecker(net, strict=False, registry=registry).attach()
        net.run(for_s=120.0)
        checker.audit()
        for inv in Invariant:
            assert registry.value(
                "repro_verify_violations_total", {"invariant": inv.value}
            ) == 0.0
        assert registry.value("repro_verify_audits_total") >= 1.0


# ---------------------------------------------------------------------------
# Flip tests: break each invariant once, strict mode must catch it.
# ---------------------------------------------------------------------------
class TestFlips:
    def _checker(self, net, **kwargs):
        kwargs.setdefault("strict", True)
        return InvariantChecker(net, **kwargs).attach()

    def test_flip_routing_loop(self):
        net = converged_line(3)
        a, b, c = net.nodes
        checker = self._checker(net, loop_grace_s=1.0)
        now = net.sim.now
        # a and b point at each other for the (live) destination c.
        plant_route(a, address=c.address, via=b.address, metric=3, now=now)
        plant_route(b, address=c.address, via=a.address, metric=3, now=now)
        checker.strict = False
        checker.audit()  # first sighting: inside the grace window
        assert not checker.violations
        checker.strict = True
        net.sim.run(until=net.sim.now + 2.0)
        plant_route(a, address=c.address, via=b.address, metric=3, now=net.sim.now)
        plant_route(b, address=c.address, via=a.address, metric=3, now=net.sim.now)
        with pytest.raises(InvariantViolation) as exc:
            checker.audit()
        assert exc.value.violation.invariant is Invariant.ROUTING_LOOP

    def test_chain_break_counted_once_per_pair(self):
        net = converged_line(4)
        a, b, c, d = net.nodes
        assert a.table.next_hop(d.address) == b.address
        assert b.table.next_hop(d.address) == c.address
        # c forgets d while a and b still route through it: (b, d) breaks
        # at its first hop and (a, d) one hop further down.
        del c.table._routes[d.address]
        c.table._version += 1  # behind the change hook, so move it here
        checker = InvariantChecker(net, strict=False)
        checker.audit()
        assert checker.observations["chain_break"] == 2
        assert not checker.violations

    def test_ghost_loop_never_violates(self):
        net = converged_line(3)
        a, b, c = net.nodes
        checker = self._checker(net, loop_grace_s=0.0)
        c.fail()  # destination is dead: any cycle towards it is debris
        now = net.sim.now
        plant_route(a, address=c.address, via=b.address, metric=3, now=now)
        plant_route(b, address=c.address, via=a.address, metric=3, now=now)
        checker.audit()
        checker.audit()
        assert checker.observations.get("loop_ghost", 0) >= 2
        assert not checker.violations

    def test_flip_via_consistency(self):
        net = converged_line(3)
        a = net.nodes[0]
        checker = self._checker(net)
        # A route whose via was never heard from (not a neighbour).
        plant_route(a, address=0x0BAD, via=0x0EEE, metric=4, now=net.sim.now)
        with pytest.raises(InvariantViolation) as exc:
            checker.audit()
        assert exc.value.violation.invariant is Invariant.VIA_CONSISTENCY

    def test_flip_metric_sanity_bounds(self):
        net = converged_line(3)
        a, b = net.nodes[0], net.nodes[1]
        checker = self._checker(net)
        plant_route(
            a,
            address=0x0BAD,
            via=b.address,
            metric=a.table.max_metric + 7,
            now=net.sim.now,
        )
        with pytest.raises(InvariantViolation) as exc:
            checker.audit()
        assert exc.value.violation.invariant is Invariant.METRIC_SANITY

    def test_flip_metric_direct_iff_one(self):
        net = converged_line(3)
        a, b = net.nodes[0], net.nodes[1]
        checker = self._checker(net)
        # metric 2 but via == address claims "direct two hops away".
        plant_route(a, address=0x0BAD, via=0x0BAD, metric=2, now=net.sim.now)
        with pytest.raises(InvariantViolation) as exc:
            checker.audit()
        assert exc.value.violation.invariant is Invariant.METRIC_SANITY

    def test_flip_exactly_once(self):
        net = converged_line(3)
        a = net.nodes[0]
        checker = self._checker(net)
        a.reliable.on_deliver(0x0002, 9, "single")
        with pytest.raises(InvariantViolation) as exc:
            a.reliable.on_deliver(0x0002, 9, "single")
        assert exc.value.violation.invariant is Invariant.EXACTLY_ONCE

    def test_flip_conservation(self):
        net = converged_line(3)
        a = net.nodes[0]
        checker = self._checker(net)
        a.send_queue.enqueued_total += 5  # five frames "vanish"
        with pytest.raises(InvariantViolation) as exc:
            checker.audit()
        assert exc.value.violation.invariant is Invariant.CONSERVATION

    def test_flip_duty_cycle(self):
        net = converged_line(3)
        a = net.nodes[0]
        checker = self._checker(net)
        # 100 s of airtime in a 3600 s window blows the 1% EU868 cap.
        a.duty.record(net.sim.now, 100.0)
        with pytest.raises(InvariantViolation) as exc:
            checker.audit()
        assert exc.value.violation.invariant is Invariant.DUTY_CYCLE

    def test_non_strict_counts_instead_of_raising(self):
        net = converged_line(3)
        a = net.nodes[0]
        checker = InvariantChecker(net, strict=False).attach()
        plant_route(a, address=0x0BAD, via=0x0EEE, metric=4, now=net.sim.now)
        found = checker.audit()
        assert found and found[0].invariant is Invariant.VIA_CONSISTENCY
        assert checker.violation_counts()["via_consistency"] >= 1
        with pytest.raises(InvariantViolation):
            checker.assert_clean()

    def test_summary_shape(self):
        net = converged_line(3)
        checker = InvariantChecker(net, strict=False).attach()
        checker.audit()
        summary = checker.summary()
        assert set(summary["violations"]) == {inv.value for inv in Invariant}
        assert summary["audits"] == 1


class TestExactlyOnceLedger:
    def test_sweeps_are_amortised_and_keep_the_window_rule(self):
        net = converged_line(3)
        a = net.nodes[0]
        checker = InvariantChecker(net, strict=True).attach()
        window = a.reliable.DEDUP_WINDOW_S
        a.reliable.on_deliver(0x0002, 0, "stale")
        net.sim.run(until=net.sim.now + window + 1.0)
        # 6,000 distinct keys, all inside the window: each sweep keeps
        # them all, so sweeping per delivery would copy the ledger
        # thousands of times.
        ledger_ids = [id(checker._deliveries)]
        for seq in range(6000):
            a.reliable.on_deliver(0x0003, seq, "single")
            if id(checker._deliveries) != ledger_ids[-1]:
                ledger_ids.append(id(checker._deliveries))
        assert 1 <= len(ledger_ids) - 1 <= 4
        # The first sweep dropped the key older than the window ...
        assert (a.address, 0x0002, 0, "stale") not in checker._deliveries
        assert len(checker._deliveries) == 6000
        # ... and an in-window repeat is still caught.
        with pytest.raises(InvariantViolation) as exc:
            a.reliable.on_deliver(0x0003, 17, "single")
        assert exc.value.violation.invariant is Invariant.EXACTLY_ONCE
        checker.detach()
