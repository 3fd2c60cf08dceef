"""The medium's bounded engine must be invisible to simulated outcomes.

A path-loss model with a registered batch kernel gets the
neighbourhood-bounded engine (grid-plus-batch reachable sets, aggregate
accounting, interference pruning, range-gated carrier sense); every
other model gets the full per-listener scan.  For any fixed seed, the
trace stream, the drop-reason histogram, and every node's statistics
must be byte-identical on both — including under mobility, attach/detach
churn, and CAD self-sensing.  Each reference side runs on
:class:`Unbounded`, the default channel with no batch kernel, and checks
``medium._bounded`` so it cannot silently compare the engine with itself.
"""

import dataclasses
from functools import partial

import pytest

from repro.medium.channel import DropReason, Medium
from repro.net.api import MeshNetwork
from repro.net.config import MesherConfig
from repro.phy.airtime import time_on_air
from repro.phy.link import LinkBudget
from repro.phy.modulation import LoRaParams, SpreadingFactor
from repro.phy.pathloss import LogDistancePathLoss
from repro.phy.regions import UNRESTRICTED
from repro.topology.placement import grid_positions
from repro.verify.faults import FaultInjector, random_churn_plan

from tests.conftest import build_radios, observed

CFG = MesherConfig(hello_period_s=60.0, route_timeout_s=300.0, purge_period_s=30.0)


class Unbounded(LogDistancePathLoss):
    """The default channel without a batch kernel (kernels register by
    exact type), so a medium over it runs the full per-listener scan."""


def _pathloss(bounded: bool) -> LogDistancePathLoss:
    return LogDistancePathLoss() if bounded else Unbounded()


def _mesh(positions, seed: int, *, bounded: bool, **kwargs) -> MeshNetwork:
    net = MeshNetwork.from_positions(
        positions, seed=seed, pathloss=_pathloss(bounded), **kwargs
    )
    assert net.medium._bounded is bounded
    return net


def _run_network(
    spacing: float,
    seed: int,
    *,
    bounded: bool,
    link_memo: bool = True,
    duration: float = 900.0,
):
    net = _mesh(grid_positions(3, 3, spacing_m=spacing), seed, bounded=bounded, config=CFG)
    net.medium.link_budget.cache_enabled = link_memo
    net.run(for_s=duration)
    return observed(net)


#: Default log-distance channel at SF7/BW125: a 137 m range, and a
#: same-SF interference cutoff of 403.2 m between senders.
PRUNING_LAYOUT = [
    (0.0, 0.0), (-60.0, 0.0), (0.0, -60.0),  # cluster A
    (136.0, 0.0),  # boundary band: 136 m from A0, facing cluster B
    (400.0, 0.0),  # just inside A0's cutoff: collides at the boundary
    (405.0, 0.0), (465.0, 0.0), (405.0, 60.0),  # cluster B, beyond it
    # SF8 nodes, cross-SF to everyone else: a pair beyond the 160.3 m
    # cross-SF cutoff of cluster A, and one just inside A0's, 20 m from
    # the boundary-band listener, strong enough to corrupt there.
    (0.0, 200.0), (0.0, 260.0), (156.0, 0.0),
]
PRUNING_BOUNDARY = 3
#: Broadcasting node -> (first broadcast, period) in seconds.  The two
#: colliders take turns, so either one's collisions show on their own.
PRUNING_BROADCASTS = {
    0: (10.0, 2.0),  # A0
    5: (10.0, 2.0),  # B0
    8: (10.0, 2.0),  # first node of the SF8 pair
    4: (10.0, 4.0),  # same-SF node inside A0's cutoff
    10: (12.0, 4.0),  # SF8 node inside A0's cross-SF cutoff
}
PRUNING_CFG = MesherConfig(
    hello_period_s=60.0, route_timeout_s=300.0, purge_period_s=30.0, region=UNRESTRICTED
)


def _pruning_network(*, bounded: bool = True) -> MeshNetwork:
    sf8 = dataclasses.replace(
        PRUNING_CFG, lora=LoRaParams(spreading_factor=SpreadingFactor.SF8)
    )
    return _mesh(
        PRUNING_LAYOUT,
        4,
        bounded=bounded,
        config=PRUNING_CFG,
        configs=[None] * 8 + [sf8] * 3,
    )


def _run_pruning_layout(*, bounded: bool):
    net = _pruning_network(bounded=bounded)
    for index, (first, period) in PRUNING_BROADCASTS.items():
        broadcast = partial(net.nodes[index].broadcast, bytes(100))
        for k in range(int(600.0 / period)):
            net.sim.schedule(first + period * k, broadcast)
    net.run(for_s=620.0)
    return observed(net)


class TestFastSlowEquivalence:
    @pytest.mark.parametrize("spacing", [80.0, 200.0])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_trace_and_outcomes_identical(self, spacing, seed):
        """The bounded engine against the scan with the link memo off:
        every link evaluated from scratch, every listener classified."""
        fast = _run_network(spacing, seed, bounded=True)
        slow = _run_network(spacing, seed, bounded=False, link_memo=False)
        assert fast[0] == slow[0], "trace streams diverged"
        assert fast[1] == slow[1], "drop-reason histograms diverged"
        assert fast[2] == slow[2], "node statistics diverged"

    def test_repeat_run_is_deterministic(self):
        first = _run_network(100.0, 9, bounded=True)
        second = _run_network(100.0, 9, bounded=True)
        assert first == second


class TestReachabilityInvalidation:
    def _deliveries(self, medium):
        return medium.outcome_counts()[DropReason.DELIVERED]

    def test_move_into_range_is_observed(self, sim, medium, params):
        a, b = build_radios(sim, medium, [(0.0, 0.0), (5000.0, 0.0)], params)
        a.transmit(bytes(10))
        sim.run(until=2.0)
        assert self._deliveries(medium) == 0  # far out of range
        b.move_to((60.0, 0.0))
        a.transmit(bytes(10))
        sim.run(until=4.0)
        assert self._deliveries(medium) == 1  # cached cull must be gone

    def test_move_out_of_range_is_observed(self, sim, medium, params):
        a, b = build_radios(sim, medium, [(0.0, 0.0), (60.0, 0.0)], params)
        a.transmit(bytes(10))
        sim.run(until=2.0)
        assert self._deliveries(medium) == 1
        b.move_to((5000.0, 0.0))
        a.transmit(bytes(10))
        sim.run(until=4.0)
        assert self._deliveries(medium) == 1

    def test_attach_after_cache_warm_is_seen(self, sim, medium, params):
        from repro.radio.driver import Radio

        (a,) = build_radios(sim, medium, [(0.0, 0.0)], params)
        a.transmit(bytes(10))
        sim.run(until=2.0)  # warms the reachable set for a's position
        b = Radio(sim, medium, 2, (70.0, 0.0), params)
        b.start_receive()
        a.transmit(bytes(10))
        sim.run(until=4.0)
        assert self._deliveries(medium) == 1

    def test_detach_after_cache_warm_is_seen(self, sim, medium, params):
        a, b = build_radios(sim, medium, [(0.0, 0.0), (60.0, 0.0)], params)
        a.transmit(bytes(10))
        sim.run(until=2.0)
        assert self._deliveries(medium) == 1
        medium.detach(b.node_id)
        a.transmit(bytes(10))
        sim.run(until=4.0)
        assert self._deliveries(medium) == 1  # nobody left to hear it

    @pytest.mark.parametrize(
        "loss_before, loss_after, heard_after",
        [(0.0, 30.0, False), (30.0, 0.0, True)],
        ids=["weakened", "strengthened"],
    )
    def test_link_budget_edit_is_observed(
        self, sim, params, loss_before, loss_after, heard_after
    ):
        """Editing the budget's losses and calling ``invalidate()`` (the
        documented protocol) reaches the medium's cached reachable sets,
        link qualities and range bounds, not only the link memo."""
        link = LinkBudget(LogDistancePathLoss(), fixed_loss_db=loss_before)
        medium = Medium(sim, link)
        a, b = build_radios(sim, medium, [(0.0, 0.0), (120.0, 0.0)], params)
        a.transmit(bytes(10))
        sim.run(until=2.0)
        assert self._deliveries(medium) == (0 if heard_after else 1)
        link.fixed_loss_db = loss_after
        link.invalidate()
        a.transmit(bytes(10))
        sim.run(until=sim.now + time_on_air(10, params) / 2)
        assert medium.channel_busy(b.position, params) is heard_after
        sim.run(until=4.0)
        assert self._deliveries(medium) == 1
        assert b.frames_received == 1

    def test_mobility_equivalent_with_and_without_culling(self, sim, params):
        def run(bounded: bool):
            local_sim = type(sim)()
            medium = Medium(local_sim, LinkBudget(_pathloss(bounded)))
            assert medium._bounded is bounded
            medium.link_budget.cache_enabled = bounded
            a, b = build_radios(
                local_sim, medium, [(0.0, 0.0), (100.0, 0.0)], params
            )
            for step in range(8):
                b.move_to((60.0 + 40.0 * (step % 3), 0.0))
                a.transmit(bytes(12))
                local_sim.run(until=local_sim.now + 2.0)
            return medium.outcome_counts(), a.frames_sent, b.frames_received

        assert run(True) == run(False)


class TestBatchEquivalence:
    """The bounded engine (grid candidates + batched RSSI rows +
    aggregate accounting + pruning) must be outcome-invisible."""

    @pytest.mark.parametrize("seed", [3, 17, 29])
    @pytest.mark.parametrize("spacing", [80.0, 200.0])
    def test_batch_on_off_identical(self, spacing, seed):
        on = _run_network(spacing, seed, bounded=True)
        off = _run_network(spacing, seed, bounded=False)
        assert on[0] == off[0], "trace streams diverged"
        assert on[1] == off[1], "drop-reason histograms diverged"
        assert on[2] == off[2], "node statistics diverged"

    def test_batch_auto_enabled_for_static_models(self):
        net = MeshNetwork.from_positions(grid_positions(2, 2), config=CFG, seed=1)
        assert net.medium._bounded

    def test_batch_auto_disabled_for_order_sensitive_models(self):
        import random

        shadowed = LogDistancePathLoss(shadowing_sigma_db=3.0, rng=random.Random(5))
        net = MeshNetwork.from_positions(
            grid_positions(2, 2), config=CFG, seed=1, pathloss=shadowed
        )
        assert not net.medium._bounded
        net.run(for_s=300.0)
        assert not net.medium._reachable_cache

    @pytest.mark.parametrize("seed", [5, 11, 23])
    def test_random_waypoint_mobility_identical(self, seed):
        from repro.topology.mobility import RandomWaypoint

        def run(bounded: bool):
            net = _mesh(
                grid_positions(3, 4, spacing_m=90.0), seed, bounded=bounded, config=CFG
            )
            walkers = [
                RandomWaypoint(
                    net.sim,
                    net.node(addr),
                    area=(0.0, 0.0, 360.0, 270.0),
                    speed_mps=8.0,
                    pause_s=10.0,
                    step_s=2.0,
                )
                for addr in (net.addresses[0], net.addresses[5])
            ]
            for walker in walkers:
                walker.start()
            net.run(for_s=900.0)
            return observed(net) + (tuple(w.legs_completed for w in walkers),)

        on = run(True)
        off = run(False)
        assert on[0] == off[0], "trace streams diverged under mobility"
        assert on[1:] == off[1:]

    def test_pruned_interferers_identical(self, monkeypatch):
        """Interference pruning, where it fires, leaves every outcome as
        the full scan has it.

        The layout puts cluster B's senders just beyond the same-SF
        cutoff of cluster A's (``R_frame + R_int`` = 403.2 m here), a
        listener in the boundary band at the edge of A0's range, a node
        just inside the cutoff whose frames still collide there, and an
        SF8 pair beyond the much shorter cross-SF cutoff.  Broadcasts from
        both clusters and two SF8 nodes run concurrently for ten minutes.
        """
        from repro.medium import channel

        calls = []

        def counted(*args):
            calls.append(None)
            return survives_interference(*args)

        survives_interference = channel.survives_interference
        monkeypatch.setattr(channel, "survives_interference", counted)

        on = _run_pruning_layout(bounded=True)
        pruned_calls = len(calls)
        off = _run_pruning_layout(bounded=False)
        full_calls = len(calls) - pruned_calls
        assert on[0] == off[0], "trace streams diverged"
        assert on[1] == off[1], "drop-reason histograms diverged"
        assert on[2] == off[2], "node statistics diverged"
        # The case prunes: the full scan tests interferers the pruned
        # overlap sets leave out.
        assert pruned_calls < full_calls
        # ...and frames from just inside a cutoff still corrupt frames at
        # the boundary-band listener.
        boundary = on[2][PRUNING_BOUNDARY]
        assert boundary[3] > 0 and on[1][DropReason.COLLISION] > 0

    def test_pruning_layout_geometry(self):
        """The distances ``test_pruned_interferers_identical`` relies on."""
        net = _pruning_network()
        medium = net.medium
        sf7 = net.nodes[0].config.lora
        sf8 = net.nodes[-1].config.lora
        assert 136.0 < medium.max_range_m(sf7) < 137.5
        assert 400.0 < medium._interference_cutoff(sf7, sf7) < 405.0
        assert 156.0 < medium._interference_cutoff(sf7, sf8) < 200.0
        assert 200.0 < medium._interference_cutoff(sf8, sf7) < 260.0

    def test_convergence_time_identical(self):
        def converge(bounded: bool):
            net = _mesh(
                grid_positions(4, 4, spacing_m=100.0), 13, bounded=bounded, config=CFG
            )
            return net.run_until_converged(timeout_s=3600.0)

        t_on = converge(True)
        t_off = converge(False)
        assert t_on is not None
        assert t_on == t_off

    def test_crash_revive_churn_identical(self):
        """Crashes detach a radio from the medium and revivals re-attach
        it with its RX state, the path that feeds the aggregate
        accounting's mirror."""

        def run(bounded: bool):
            net = _mesh(grid_positions(3, 3, spacing_m=80.0), 5, bounded=bounded, config=CFG)
            plan = random_churn_plan(
                net.addresses, seed=7, start=300.0, end=2100.0, cycles=4
            )
            assert plan.crashes and plan.revives
            FaultInjector(net, plan, seed=7).arm()
            aggregate = []
            complete_aggregate = net.medium._complete_aggregate

            def counted(*args):
                aggregate.append(None)
                return complete_aggregate(*args)

            net.medium._complete_aggregate = counted
            net.run(for_s=2400.0)
            return observed(net), len(aggregate)

        (on, on_aggregate), (off, off_aggregate) = run(True), run(False)
        assert on[0] == off[0], "trace streams diverged under churn"
        assert on[1] == off[1], "drop-reason histograms diverged under churn"
        assert on[2] == off[2], "node statistics diverged under churn"
        # The bounded side resolved through the aggregate path, the
        # reference never did.
        assert on_aggregate > 0 and off_aggregate == 0


class TestSelectiveMoveInvalidation:
    """A move must evict only the reachable-cache entries it can affect
    (a wholesale clear on every move would rebuild every sender's set
    under mobility)."""

    def test_two_node_move_keeps_unrelated_entries(self, sim, params):
        medium = Medium(sim, LinkBudget(LogDistancePathLoss()))
        assert medium._bounded
        # 48-node cluster near the origin plus a far-away 2-node pair:
        # no entry from the cluster involves the pair or vice versa.
        positions = [(i * 60.0, 0.0) for i in range(48)]
        positions += [(1.0e6, 0.0), (1.0e6 + 50.0, 0.0)]
        radios = build_radios(sim, medium, positions, params)
        for r in radios:
            r.transmit(bytes(8))
            sim.run(until=sim.now + 1.0)
        assert len(medium._reachable_cache) == 50
        cluster_keys = {(pos, id(params)) for pos in positions[:48]}
        radios[-2].move_to((1.0e6, 40.0))
        radios[-1].move_to((1.0e6 + 50.0, 40.0))
        remaining = set(medium._reachable_cache)
        assert cluster_keys <= remaining, "unrelated senders' entries evicted"
        # The movers' own entries (and their neighbour's, which contained
        # them) are gone.
        assert ((1.0e6, 0.0), id(params)) not in remaining
        assert ((1.0e6 + 50.0, 0.0), id(params)) not in remaining

    def test_move_into_cluster_range_invalidates(self, sim, params):
        medium = Medium(sim, LinkBudget(LogDistancePathLoss()))
        a, b = build_radios(sim, medium, [(0.0, 0.0), (1.0e6, 0.0)], params)
        a.transmit(bytes(8))
        sim.run(until=sim.now + 1.0)
        assert ((0.0, 0.0), id(params)) in medium._reachable_cache
        # b moves next to a: a's entry must be evicted even though b was
        # not a member of it (it may now be reachable).
        b.move_to((50.0, 0.0))
        assert ((0.0, 0.0), id(params)) not in medium._reachable_cache

    def test_scan_keeps_no_entries(self, sim, params):
        medium = Medium(sim, LinkBudget(Unbounded()))
        assert not medium._bounded
        a, b = build_radios(sim, medium, [(0.0, 0.0), (60.0, 0.0)], params)
        a.transmit(bytes(8))
        sim.run(until=sim.now + 1.0)
        b.move_to((70.0, 0.0))
        a.transmit(bytes(8))
        sim.run(until=sim.now + 1.0)
        assert not medium._reachable_cache
        assert b.frames_received == 2
        assert medium.outcome_counts()[DropReason.DELIVERED] == 2


class TestCadSelfSensing:
    def test_transmitter_does_not_sense_itself(self, sim, medium, params):
        a, b = build_radios(sim, medium, [(0.0, 0.0), (50.0, 0.0)], params)
        a.transmit(bytes(50))
        sim.run(until=time_on_air(50, params) / 2)  # mid-flight
        # The channel IS busy for a third party at a's position...
        assert medium.channel_busy((0.0, 0.0), params)
        # ...but not for the transmitter itself (a radio cannot CAD-detect
        # its own frame: it is not receiving while it transmits).
        assert not medium.channel_busy(
            (0.0, 0.0), params, exclude_sender=a.node_id
        )
