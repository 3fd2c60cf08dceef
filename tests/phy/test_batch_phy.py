"""The batch PHY engine must agree with scalar evaluation *exactly*.

Not "within tolerance": the medium swaps the batch engine in for the
scalar loop at runtime, so any last-ulp divergence would change reachable
sets and therefore simulated outcomes.  Both paths route their
transcendentals through the same numpy kernels and associate every other
op identically, so the property below is exact float equality.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import batch
from repro.phy.fading import BlockFadingPathLoss
from repro.phy.link import LinkBudget, sensitivity_dbm
from repro.phy.modulation import Bandwidth, LoRaParams, SpreadingFactor
from repro.phy.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    MultiWallPathLoss,
)
from repro.sim.kernel import Simulator


def _models():
    return [
        FreeSpacePathLoss(),
        LogDistancePathLoss(),
        LogDistancePathLoss(exponent=3.2, reference_distance_m=10.0, reference_loss_db=60.0),
        MultiWallPathLoss(
            [((50.0, -100.0), (50.0, 100.0)), ((-25.0, 40.0), (200.0, 40.0))],
            wall_loss_db=7.5,
        ),
    ]


positions_strategy = st.lists(
    st.tuples(
        st.floats(min_value=-500.0, max_value=2000.0, allow_nan=False),
        st.floats(min_value=-500.0, max_value=2000.0, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)

params_strategy = st.builds(
    LoRaParams,
    spreading_factor=st.sampled_from(list(SpreadingFactor)),
    bandwidth=st.sampled_from(list(Bandwidth)),
    frequency_mhz=st.sampled_from([433.0, 868.0, 915.0]),
    tx_power_dbm=st.floats(min_value=2.0, max_value=20.0, allow_nan=False),
)


class TestExactEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(txs=positions_strategy, rxs=positions_strategy, params=params_strategy)
    def test_matrices_equal_scalar_evaluate(self, txs, rxs, params):
        for model in _models():
            budget = LinkBudget(model)
            assert batch.supports_batch(budget)
            m = batch.link_matrices(budget, txs, rxs, params)
            for i, tx in enumerate(txs):
                for j, rx in enumerate(rxs):
                    q = budget.evaluate(tx, rx, params)
                    assert m.rssi_dbm[i, j] == q.rssi_dbm, (model, tx, rx)
                    assert m.snr_db[i, j] == q.snr_db, (model, tx, rx)
                    assert bool(m.above_sensitivity[i, j]) == q.above_sensitivity

    @settings(max_examples=30, deadline=None)
    @given(txs=positions_strategy, rxs=positions_strategy, params=params_strategy)
    def test_antenna_gains_and_fixed_loss(self, txs, rxs, params):
        budget = LinkBudget(
            LogDistancePathLoss(),
            tx_antenna_gain_dbi=2.15,
            rx_antenna_gain_dbi=-1.5,
            fixed_loss_db=0.7,
        )
        m = batch.link_matrices(budget, txs, rxs, params)
        for i, tx in enumerate(txs):
            for j, rx in enumerate(rxs):
                q = budget.evaluate(tx, rx, params)
                assert m.rssi_dbm[i, j] == q.rssi_dbm
                assert m.snr_db[i, j] == q.snr_db

    @settings(max_examples=40, deadline=None)
    @given(positions=positions_strategy, params=params_strategy)
    def test_max_range_is_conservative(self, positions, params):
        """Every pair the exact margin test admits lies within max_range."""
        for model in _models():
            budget = LinkBudget(model)
            rng_m = batch.max_range_m(budget, params)
            assert rng_m is not None and rng_m >= 0.0
            for a in positions:
                for b in positions:
                    if budget.evaluate(a, b, params).above_sensitivity:
                        d = math.hypot(a[0] - b[0], a[1] - b[1])
                        assert d <= rng_m, (model, a, b, d, rng_m)


class TestSupportGating:
    def test_builtin_static_models_supported(self):
        for model in _models():
            assert batch.supports_batch_model(model)

    def test_order_sensitive_shadowing_excluded(self):
        model = LogDistancePathLoss(shadowing_sigma_db=3.0, rng=random.Random(1))
        assert not batch.supports_batch_model(model)

    def test_time_varying_fading_excluded(self):
        sim = Simulator()
        model = BlockFadingPathLoss(
            LogDistancePathLoss(), sim, sigma_db=2.0, coherence_time_s=10.0, seed=4
        )
        assert not batch.supports_batch_model(model)

    def test_unregistered_subclass_excluded(self):
        """A subclass overriding loss_db must never inherit the parent's
        vectorized kernel (registration is by exact type)."""

        class Custom(LogDistancePathLoss):
            def loss_db(self, tx, rx, frequency_mhz):
                return 0.0

        assert not batch.supports_batch_model(Custom())

    def test_custom_registration(self):

        class Flat(FreeSpacePathLoss):
            pass

        try:
            batch.register_batch_kernels(
                Flat,
                lambda model, txs, rxs, f: batch.batch_loss_db(
                    FreeSpacePathLoss(), txs, rxs, f
                ),
                lambda model, max_loss, f: 10.0,
            )
            assert batch.supports_batch_model(Flat())
        finally:
            batch._BATCH_KERNELS.pop(Flat, None)


class TestMaxRangeEdgeCases:
    def test_unbounded_without_kernel(self):

        class Alien(LogDistancePathLoss):
            pass

        assert batch.max_range_m(LinkBudget(Alien()), LoRaParams()) is None

    def test_negative_budget_clamps_to_zero(self):
        budget = LinkBudget(MultiWallPathLoss([]), fixed_loss_db=300.0)
        rng_m = batch.max_range_m(budget, LoRaParams())
        assert rng_m is not None and rng_m >= 0.0


class TestRangeAtFloor:
    """``range_at_floor_m`` bounds where a frame can still arrive above a
    floor: the medium prunes interferers with it, so RSSI must be at or
    below the floor at the returned radius and above it just inside."""

    FLOOR_OFFSETS_DB = (-6.0, 0.0, 16.0)  # capture, sensitivity, inter-SF

    @staticmethod
    def _models():
        # One per registered kernel; the multi-wall walls stay off the
        # rays the test measures along, so only the base loss applies.
        return [
            FreeSpacePathLoss(),
            LogDistancePathLoss(),
            MultiWallPathLoss([((-50.0, 10.0), (-50.0, 500.0))], wall_loss_db=9.0),
        ]

    def test_every_registered_kernel_is_covered(self):
        assert {type(model) for model in self._models()} == set(batch._BATCH_KERNELS)

    @pytest.mark.parametrize(
        "params",
        [
            LoRaParams(),
            LoRaParams(bandwidth=Bandwidth.BW500),
            LoRaParams(spreading_factor=SpreadingFactor.SF12, tx_power_dbm=2.0),
            LoRaParams(spreading_factor=SpreadingFactor.SF9, frequency_mhz=433.0),
        ],
    )
    def test_rssi_at_floor_on_the_radius_and_above_inside(self, params):
        for model in self._models():
            budget = LinkBudget(model)
            for offset in self.FLOOR_OFFSETS_DB:
                floor = sensitivity_dbm(params) + offset
                radius = batch.range_at_floor_m(budget, params, floor)
                assert radius is not None and radius > 10.0, (model, offset)
                for ux, uy in ((1.0, 0.0), (0.6, 0.8)):
                    at = (radius * ux, radius * uy)
                    inside = (radius * (1 - 1e-4) * ux, radius * (1 - 1e-4) * uy)
                    assert budget.received_power_dbm((0.0, 0.0), at, params) <= floor
                    assert budget.received_power_dbm((0.0, 0.0), inside, params) > floor

    def test_walls_only_lower_rssi_beyond_the_radius(self):
        params = LoRaParams()
        budget = LinkBudget(
            MultiWallPathLoss([((30.0, -500.0), (30.0, 500.0))], wall_loss_db=9.0)
        )
        floor = sensitivity_dbm(params) - 6.0
        radius = batch.range_at_floor_m(budget, params, floor)
        assert budget.received_power_dbm((0.0, 0.0), (radius, 0.0), params) <= floor

    def test_sensitivity_floor_is_max_range(self):
        for model in self._models():
            budget = LinkBudget(model)
            for params in (LoRaParams(), LoRaParams(spreading_factor=SpreadingFactor.SF10)):
                assert batch.range_at_floor_m(
                    budget, params, sensitivity_dbm(params)
                ) == batch.max_range_m(budget, params)

    def test_unbounded_without_kernel(self):

        class Alien(LogDistancePathLoss):
            pass

        assert batch.range_at_floor_m(LinkBudget(Alien()), LoRaParams(), -120.0) is None
