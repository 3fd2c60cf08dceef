"""Tests for the SNR-based link-quality tie-break extension."""

import pytest

from repro.net.packets import RoutingEntry
from repro.net.routing_table import RoutingTable

ME = 0x0001
WEAK = 0x0002  # neighbour with a weak link
STRONG = 0x0003  # neighbour with a strong link
FAR = 0x0009


def table(tiebreak=3.0) -> RoutingTable:
    return RoutingTable(ME, snr_tiebreak_db=tiebreak)


class TestTiebreakRules:
    def test_equal_metric_stronger_link_wins(self):
        t = table()
        t.process_hello(WEAK, [RoutingEntry(address=FAR, metric=1)], now=0.0, snr_db=-9.0)
        t.process_hello(STRONG, [RoutingEntry(address=FAR, metric=1)], now=1.0, snr_db=-2.0)
        assert t.next_hop(FAR) == STRONG
        assert t.metric(FAR) == 2

    def test_hysteresis_blocks_marginal_switch(self):
        t = table(tiebreak=3.0)
        t.process_hello(WEAK, [RoutingEntry(address=FAR, metric=1)], now=0.0, snr_db=-5.0)
        # Only 2 dB stronger: below the 3 dB hysteresis, keep the incumbent.
        t.process_hello(STRONG, [RoutingEntry(address=FAR, metric=1)], now=1.0, snr_db=-3.0)
        assert t.next_hop(FAR) == WEAK

    def test_worse_metric_never_wins_regardless_of_snr(self):
        t = table()
        t.process_hello(WEAK, [RoutingEntry(address=FAR, metric=1)], now=0.0, snr_db=-9.0)
        t.process_hello(STRONG, [RoutingEntry(address=FAR, metric=2)], now=1.0, snr_db=10.0)
        assert t.next_hop(FAR) == WEAK

    def test_disabled_by_default(self):
        t = RoutingTable(ME)  # paper behaviour: pure hop count
        t.process_hello(WEAK, [RoutingEntry(address=FAR, metric=1)], now=0.0, snr_db=-9.0)
        t.process_hello(STRONG, [RoutingEntry(address=FAR, metric=1)], now=1.0, snr_db=20.0)
        assert t.next_hop(FAR) == WEAK  # first-learned route sticks

    def test_missing_candidate_snr_blocks_switch(self):
        t = table()
        t.process_hello(WEAK, [RoutingEntry(address=FAR, metric=1)], now=0.0, snr_db=-9.0)
        t.process_hello(STRONG, [RoutingEntry(address=FAR, metric=1)], now=1.0, snr_db=None)
        assert t.next_hop(FAR) == WEAK

    def test_measured_link_beats_unmeasured_incumbent(self):
        t = table()
        t.process_hello(WEAK, [RoutingEntry(address=FAR, metric=1)], now=0.0, snr_db=None)
        t.process_hello(STRONG, [RoutingEntry(address=FAR, metric=1)], now=1.0, snr_db=-2.0)
        assert t.next_hop(FAR) == STRONG

    def test_resent_beacon_is_judged_on_its_latest_snr(self):
        # The same entries object heard again at a better SNR must go
        # through the tie-break again, whatever its earlier merges did.
        t = table(tiebreak=3.0)
        t.process_hello(WEAK, [RoutingEntry(address=FAR, metric=1)], now=0.0, snr_db=-5.0)
        beacon = (RoutingEntry(address=FAR, metric=1),)
        assert t.process_hello(STRONG, beacon, now=1.0, snr_db=-4.0) == 0
        assert t.process_hello(STRONG, beacon, now=2.0, snr_db=-4.0) == 0
        assert t.next_hop(FAR) == WEAK
        assert t.process_hello(STRONG, beacon, now=3.0, snr_db=0.0) == 1
        assert t.next_hop(FAR) == STRONG

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            RoutingTable(ME, snr_tiebreak_db=-1.0)

    def test_direct_neighbour_route_untouched(self):
        # Tie-break only reroutes multi-hop destinations; a direct
        # neighbour stays via itself.
        t = table()
        t.process_hello(WEAK, [], now=0.0, snr_db=-9.0)
        t.process_hello(STRONG, [RoutingEntry(address=WEAK, metric=1)], now=1.0, snr_db=0.0)
        # STRONG advertises WEAK at metric 2 (1+1): worse than direct.
        assert t.next_hop(WEAK) == WEAK


class TestConfigWiring:
    def test_mesher_config_validates(self):
        from repro.net.config import MesherConfig

        MesherConfig(link_quality_tiebreak_db=3.0)
        with pytest.raises(ValueError):
            MesherConfig(link_quality_tiebreak_db=-0.5)

    def test_node_table_receives_threshold(self, sim, medium):
        from repro.net.config import MesherConfig
        from repro.net.mesher import MesherNode

        config = MesherConfig(link_quality_tiebreak_db=4.0)
        node = MesherNode(sim, medium, 0x0001, (0.0, 0.0), config)
        assert node.table.snr_tiebreak_db == 4.0
