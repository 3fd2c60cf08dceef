"""Tests for the distance-vector routing table."""

import hashlib

import pytest

from repro.net.packets import NodeRole, RoutingEntry
from repro.net.routing_table import RoutingTable, make_routing_table

ME = 0x0001
N1 = 0x0002  # neighbour 1
N2 = 0x0003  # neighbour 2
FAR = 0x0004  # two hops away


def table(**kwargs):
    return RoutingTable(ME, **kwargs)


class TestHeardFrom:
    def test_neighbour_added_at_metric_one(self):
        t = table()
        t.heard_from(N1, now=0.0)
        entry = t.get(N1)
        assert entry is not None
        assert entry.metric == 1
        assert entry.via == N1
        assert entry.is_neighbour

    def test_self_never_added(self):
        t = table()
        t.heard_from(ME, now=0.0)
        assert t.size == 0

    def test_broadcast_never_added(self):
        t = table()
        t.heard_from(0xFFFF, now=0.0)
        assert t.size == 0

    def test_direct_route_replaces_multihop(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        assert t.metric(FAR) == 2
        t.heard_from(FAR, now=1.0)
        assert t.metric(FAR) == 1
        assert t.next_hop(FAR) == FAR

    def test_refresh_updates_timestamp(self):
        t = table(route_timeout=100.0)
        t.heard_from(N1, now=0.0)
        t.heard_from(N1, now=90.0)
        t.purge(now=150.0)  # 60 s since refresh: still alive
        assert t.has_route(N1)


class TestHelloMerge:
    def test_learns_distant_nodes_with_incremented_metric(self):
        t = table()
        changed = t.process_hello(N1, [RoutingEntry(address=FAR, metric=2)], now=0.0)
        assert changed >= 1
        assert t.metric(FAR) == 3
        assert t.next_hop(FAR) == N1

    def test_hello_source_becomes_neighbour(self):
        t = table()
        t.process_hello(N1, [], now=0.0)
        assert t.metric(N1) == 1

    def test_better_metric_wins(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=3)], now=0.0)
        t.process_hello(N2, [RoutingEntry(address=FAR, metric=1)], now=1.0)
        assert t.metric(FAR) == 2
        assert t.next_hop(FAR) == N2

    def test_worse_metric_from_other_via_ignored(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        t.process_hello(N2, [RoutingEntry(address=FAR, metric=5)], now=1.0)
        assert t.metric(FAR) == 2
        assert t.next_hop(FAR) == N1

    def test_same_via_follows_metric_increase(self):
        # The current next hop's view worsened: follow it (RIP behaviour).
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=4)], now=1.0)
        assert t.metric(FAR) == 5
        assert t.next_hop(FAR) == N1

    def test_own_address_in_hello_skipped(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=ME, metric=0)], now=0.0)
        assert not t.has_route(ME)

    def test_metric_cap_blocks_count_to_infinity(self):
        t = table(max_metric=4)
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=4)], now=0.0)
        assert not t.has_route(FAR)

    def test_snr_recorded_for_neighbour(self):
        t = table()
        t.process_hello(N1, [], now=0.0, snr_db=-3.5)
        assert t.get(N1).received_snr_db == -3.5

    def test_role_propagated(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1, role=int(NodeRole.GATEWAY))], now=0.0)
        assert t.get(FAR).role == int(NodeRole.GATEWAY)

    def test_sender_role_from_its_first_self_row(self):
        # The sender's role comes from the first row advertising its own
        # address, wherever it sits; a later duplicate does not override.
        t = table()
        rows = (
            RoutingEntry(address=FAR, metric=1),
            RoutingEntry(address=N1, metric=0, role=int(NodeRole.GATEWAY)),
            RoutingEntry(address=N1, metric=0, role=int(NodeRole.DEFAULT)),
        )
        t.process_hello(N1, rows, now=0.0)
        assert t.get(N1).role == int(NodeRole.GATEWAY)

    def test_duplicate_address_rows_merge_in_order(self):
        # The second row for the same destination follows the via the
        # first row just installed, so the packet's last word wins.
        t = table()
        rows = (RoutingEntry(address=0x10, metric=5), RoutingEntry(address=0x10, metric=2))
        t.process_hello(0x99, rows, now=0.0)
        assert t.metric(0x10) == 3


class TestExpiry:
    def test_stale_routes_purged(self):
        t = table(route_timeout=100.0)
        t.heard_from(N1, now=0.0)
        removed = t.purge(now=101.0)
        assert [e.address for e in removed] == [N1]
        assert not t.has_route(N1)

    def test_fresh_routes_survive_purge(self):
        t = table(route_timeout=100.0)
        t.heard_from(N1, now=0.0)
        assert t.purge(now=99.0) == []
        assert t.has_route(N1)

    def test_remove_via_drops_all_dependent_routes(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        t.process_hello(N2, [], now=0.0)
        dropped = t.remove_via(N1)
        assert {e.address for e in dropped} == {N1, FAR}
        assert t.has_route(N2)


class TestLookupAndIteration:
    def test_next_hop_unknown_destination(self):
        assert table().next_hop(FAR) is None

    def test_contains_and_size(self):
        t = table()
        t.heard_from(N1, now=0.0)
        assert N1 in t
        assert FAR not in t
        assert t.size == 1

    def test_iteration_sorted_by_address(self):
        t = table()
        t.heard_from(N2, now=0.0)
        t.heard_from(N1, now=0.0)
        assert [e.address for e in t] == [N1, N2]

    def test_neighbours_listed(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        assert t.neighbours() == [N1]
        assert t.destinations() == [N1, FAR]


class TestSnapshot:
    def test_snapshot_advertises_self_at_metric_zero(self):
        t = table()
        rows = t.snapshot()
        assert rows[0] == RoutingEntry(address=ME, metric=0, role=0)

    def test_snapshot_includes_all_routes(self):
        t = table()
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=0.0)
        rows = t.snapshot()
        advertised = {r.address: r.metric for r in rows}
        assert advertised == {ME: 0, N1: 1, FAR: 2}

    def test_snapshot_role_flag(self):
        rows = table().snapshot(self_role=int(NodeRole.GATEWAY))
        assert rows[0].role == int(NodeRole.GATEWAY)

    def test_two_tables_converge_via_snapshots(self):
        # A miniature two-node exchange: tables teach each other.
        ta = RoutingTable(0x000A)
        tb = RoutingTable(0x000B)
        tb.heard_from(0x000C, now=0.0)  # B knows C
        ta.process_hello(0x000B, tb.snapshot()[1:], now=1.0)
        assert ta.metric(0x000B) == 1
        assert ta.metric(0x000C) == 2

    def test_snapshot_returns_fresh_equal_lists(self):
        t = table()
        t.heard_from(0x10, now=0.0)
        a = t.snapshot()
        b = t.snapshot()
        assert a == b and a is not b

    def test_snapshot_follows_table_changes(self):
        t = table()
        t.heard_from(0x10, now=0.0)
        assert len(t.snapshot()) == 2
        t.heard_from(0x20, now=1.0)
        assert [r.address for r in t.snapshot()] == [ME, 0x10, 0x20]


class TestChangeHook:
    def test_hook_sees_adds_updates_removes(self):
        events = []
        t = RoutingTable(ME, route_timeout=100.0, on_change=lambda k, e: events.append((k, e.address)))
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=3)], now=0.0)
        t.process_hello(N2, [RoutingEntry(address=FAR, metric=1)], now=1.0)
        t.purge(now=500.0)
        kinds = [k for k, _ in events]
        assert "added" in kinds
        assert "updated" in kinds
        assert "removed" in kinds

    def test_via_change_at_equal_metric_moves_version(self):
        # The audit's clean-table skip reads via-consistency and chains
        # from the via, which no advertised row carries.
        t = table(snr_tiebreak_db=3.0)
        t.set_route(FAR, via=N1, metric=2)
        before = t.version
        t.set_route(FAR, via=N2, metric=2)
        assert (t.get(FAR).via, t.version) == (N2, before + 1)
        t.set_route(FAR, via=N2, metric=2)
        assert t.version == before + 1
        # The SNR tie-break moves an equal-metric route to a stronger hop.
        t.process_hello(N2, [], now=0.0, snr_db=-10.0)
        t.process_hello(N1, [], now=0.0, snr_db=0.0)
        before = t.version
        t.process_hello(N1, [RoutingEntry(address=FAR, metric=1)], now=1.0, snr_db=0.0)
        assert (t.get(FAR).via, t.get(FAR).metric) == (N1, 2)
        assert t.version == before + 1


class TestValidation:
    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            RoutingTable(ME, route_timeout=0.0)

    def test_bad_max_metric_rejected(self):
        with pytest.raises(ValueError):
            RoutingTable(ME, max_metric=0)
        with pytest.raises(ValueError):
            RoutingTable(ME, max_metric=256)

    def test_negative_snr_tiebreak_rejected(self):
        with pytest.raises(ValueError):
            RoutingTable(ME, snr_tiebreak_db=-1.0)

    def test_format_renders_all_routes(self):
        t = table()
        t.heard_from(N1, now=0.0)
        text = t.format()
        assert "0002" in text
        assert "metric=1" in text


class TestRepeatedHello:
    def test_noop_merge_refreshes_taught_routes(self):
        t = table(route_timeout=100.0)
        rows = (RoutingEntry(address=0x10, metric=1), RoutingEntry(address=0x11, metric=1))
        assert t.process_hello(0x99, rows, now=0.0) == 2
        assert t.process_hello(0x99, rows, now=10.0) == 0
        # A merge that changes nothing still moves the timestamps forward.
        assert t.get(0x10).updated_at == t.get(0x11).updated_at == 10.0
        assert t.purge(now=105.0) == []
        assert t.has_route(0x10) and t.has_route(0x11)

    def test_edited_list_is_merged_again(self):
        # A caller re-sending the same list object after editing it gets
        # the edited rows merged.
        t = table()
        rows = [RoutingEntry(address=0x10, metric=1)]
        t.process_hello(N1, rows, now=0.0)
        t.process_hello(N1, rows, now=1.0)
        rows[0] = RoutingEntry(address=0x10, metric=5)
        assert t.process_hello(N1, rows, now=2.0) == 1
        assert t.metric(0x10) == 6


class TestFactory:
    def test_builds_the_scalar_table(self):
        t = make_routing_table(ME, route_timeout=42.0, max_metric=9, snr_tiebreak_db=2.0)
        assert type(t) is RoutingTable
        assert (t.route_timeout, t.max_metric, t.snr_tiebreak_db) == (42.0, 9, 2.0)

    def test_explicit_scalar(self):
        assert type(make_routing_table(ME, impl="scalar")) is RoutingTable

    def test_unknown_impl_rejected(self):
        for impl in ("auto", "columnar", "quantum"):
            with pytest.raises(ValueError):
                make_routing_table(ME, impl=impl)


class TestMeshFingerprint:
    def test_whole_mesh_run_matches_golden(self):
        """End-to-end determinism pin: placement, hellos, merges and
        convergence of a 4x4 grid reproduce the recorded run exactly."""
        from repro.net.api import MeshNetwork
        from repro.net.config import MesherConfig
        from repro.topology.placement import grid_positions

        net = MeshNetwork.from_positions(
            grid_positions(4, 4, spacing_m=120.0),
            config=MesherConfig(hello_period_s=60.0),
            seed=7,
            trace_enabled=False,
        )
        convergence = net.run_until_converged(timeout_s=3600.0, check_period_s=10.0)
        rows = ";".join(
            f"{node.address}>{d}:{node.table.next_hop(d)}:{node.table.metric(d)}"
            for node in net.nodes
            for d in node.table.destinations()
        )
        assert (convergence, net.total_frames_sent(), net.total_bytes_sent()) == (210.0, 53, 2654)
        assert hashlib.sha256(rows.encode()).hexdigest()[:16] == "9e291fbb46e955ac"
