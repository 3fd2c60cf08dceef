"""Tests for regulatory regions and duty-cycle accounting."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.regions import (
    EU868,
    UNRESTRICTED,
    US915,
    DutyCycleAccountant,
    DutyCycleViolation,
    Region,
)


class TestRegionDefinitions:
    def test_eu868_is_one_percent(self):
        assert EU868.duty_cycle == 0.01
        assert EU868.window_s == 3600.0

    def test_us915_dwell_limit(self):
        assert US915.max_dwell_time_s == pytest.approx(0.4)
        assert US915.duty_cycle == 1.0

    def test_invalid_duty_cycle_rejected(self):
        with pytest.raises(ValueError):
            Region(name="bad", duty_cycle=0.0, max_dwell_time_s=1.0, max_eirp_dbm=14.0)
        with pytest.raises(ValueError):
            Region(name="bad", duty_cycle=1.5, max_dwell_time_s=1.0, max_eirp_dbm=14.0)


class TestAccounting:
    def test_fresh_accountant_allows_transmission(self):
        acct = DutyCycleAccountant(EU868)
        assert acct.can_transmit(0.0, 1.0)

    def test_budget_exhaustion(self):
        acct = DutyCycleAccountant(EU868)
        # EU868 budget: 36 s of airtime per hour.
        acct.record(0.0, 36.0)
        assert not acct.can_transmit(1.0, 0.1)

    def test_budget_frees_as_window_slides(self):
        acct = DutyCycleAccountant(EU868)
        acct.record(0.0, 36.0)
        assert not acct.can_transmit(100.0, 1.0)
        assert acct.can_transmit(3601.0, 1.0)

    def test_window_utilisation(self):
        acct = DutyCycleAccountant(EU868)
        acct.record(0.0, 18.0)
        assert acct.window_utilisation(1.0) == pytest.approx(0.005)
        assert acct.window_utilisation(3601.0) == pytest.approx(0.0)

    def test_total_airtime_never_pruned(self):
        acct = DutyCycleAccountant(EU868)
        acct.record(0.0, 10.0)
        acct.record(4000.0, 5.0)
        assert acct.total_airtime_s == pytest.approx(15.0)

    def test_next_allowed_time_now_when_budget_free(self):
        acct = DutyCycleAccountant(EU868)
        assert acct.next_allowed_time(5.0, 1.0) == 5.0

    def test_next_allowed_time_after_exhaustion(self):
        acct = DutyCycleAccountant(EU868)
        acct.record(10.0, 36.0)
        # The frame that exhausted the budget ages out at 10 + 3600.
        assert acct.next_allowed_time(100.0, 1.0) == pytest.approx(3610.0)

    def test_next_allowed_walks_multiple_records(self):
        acct = DutyCycleAccountant(EU868)
        acct.record(0.0, 20.0)
        acct.record(50.0, 16.0)
        # Needs 10 s freed: the first record (20 s) ageing out suffices.
        assert acct.next_allowed_time(60.0, 10.0) == pytest.approx(3600.0)

    def test_dwell_time_violation_raises_on_record(self):
        acct = DutyCycleAccountant(US915)
        with pytest.raises(DutyCycleViolation):
            acct.record(0.0, 0.5)

    def test_dwell_time_blocks_can_transmit(self):
        acct = DutyCycleAccountant(US915)
        assert not acct.can_transmit(0.0, 0.5)
        assert acct.can_transmit(0.0, 0.3)

    def test_dwell_violation_in_next_allowed(self):
        acct = DutyCycleAccountant(US915)
        with pytest.raises(DutyCycleViolation):
            acct.next_allowed_time(0.0, 1.0)

    def test_negative_airtime_rejected(self):
        acct = DutyCycleAccountant(EU868)
        with pytest.raises(ValueError):
            acct.record(0.0, -1.0)

    def test_unrestricted_region_never_blocks(self):
        acct = DutyCycleAccountant(UNRESTRICTED)
        acct.record(0.0, 1800.0)
        assert acct.can_transmit(1.0, 1000.0)

    def test_many_small_frames_accumulate(self):
        acct = DutyCycleAccountant(EU868)
        for i in range(35):
            assert acct.can_transmit(i * 10.0, 1.0)
            acct.record(i * 10.0, 1.0)
        # 35 s used of the 36 s budget: a 2 s frame no longer fits.
        assert not acct.can_transmit(355.0, 2.0)
        assert acct.can_transmit(355.0, 1.0)


class TupleWindowAccountant:
    """The accountant as it was before its window was packed into arrays:
    a deque of ``(start, airtime)`` tuples, popped from the left.  Kept as
    the reference the packed window must answer exactly like."""

    def __init__(self, region):
        self.region = region
        self._records = deque()
        self._total_airtime = 0.0
        self._window_airtime = 0.0

    @property
    def total_airtime_s(self):
        return self._total_airtime

    def record(self, now, airtime_s):
        if airtime_s < 0:
            raise ValueError("airtime must be >= 0")
        if airtime_s > self.region.max_dwell_time_s:
            raise DutyCycleViolation(
                f"frame airtime {airtime_s * 1000:.1f} ms exceeds {self.region.name} "
                f"dwell limit {self.region.max_dwell_time_s * 1000:.0f} ms"
            )
        self._prune(now)
        self._records.append((now, airtime_s))
        self._total_airtime += airtime_s
        self._window_airtime += airtime_s

    def window_utilisation(self, now):
        self._prune(now)
        return self._window_airtime / self.region.window_s

    def can_transmit(self, now, airtime_s):
        if airtime_s > self.region.max_dwell_time_s:
            return False
        self._prune(now)
        budget = self.region.duty_cycle * self.region.window_s
        return self._window_airtime + airtime_s <= budget

    def next_allowed_time(self, now, airtime_s):
        if airtime_s > self.region.max_dwell_time_s:
            raise DutyCycleViolation(
                f"frame airtime {airtime_s:.3f}s can never fit "
                f"{self.region.name} dwell limit"
            )
        self._prune(now)
        budget = self.region.duty_cycle * self.region.window_s
        if self._window_airtime + airtime_s <= budget:
            return now
        needed = self._window_airtime + airtime_s - budget
        freed = 0.0
        for start, duration in self._records:
            freed += duration
            if freed >= needed:
                return start + self.region.window_s
        raise DutyCycleViolation("duty-cycle accounting is inconsistent")

    def _prune(self, now):
        horizon = now - self.region.window_s
        while self._records and self._records[0][0] <= horizon:
            _, duration = self._records.popleft()
            self._window_airtime -= duration
        if self._window_airtime < 0:
            self._window_airtime = 0.0


_CALLS = ("record", "can_transmit", "next_allowed_time", "window_utilisation", "total_airtime_s")


def _answer(acct, name, now, airtime):
    """What one call returns (``None`` for ``record``), or the violation
    it raised."""
    try:
        if name == "total_airtime_s":
            return acct.total_airtime_s
        if name == "window_utilisation":
            return acct.window_utilisation(now)
        return getattr(acct, name)(now, airtime)
    except DutyCycleViolation as exc:
        return ("raised", str(exc))


def _bursts(region, max_airtime):
    """Call sequences as bursts.  Each burst starts with a ``record`` that
    fits the dwell limit, more than a window after the previous burst
    ended, so every earlier record has aged out and the dead prefix is
    dropped at least once per burst boundary; within a burst, steps of up
    to a quarter window age some records out and leave others live."""
    window = region.window_s
    step = st.one_of(
        st.floats(0.0, 5.0), st.floats(0.0, window / 4), st.sampled_from([0.0, window])
    )
    call = st.tuples(st.sampled_from(_CALLS), step, st.floats(0.0, max_airtime))
    burst = st.tuples(
        st.floats(window + 1.0, 1.5 * window),
        st.floats(0.0, min(max_airtime, region.max_dwell_time_s)),
        st.lists(call, min_size=1, max_size=40),
    )
    return st.lists(burst, min_size=3, max_size=6)


class TestPackedWindowMatchesTupleWindow:
    """The packed window gives the answers the tuple window gave, bit for
    bit: the same float operations run in the same order."""

    @pytest.mark.parametrize(
        "region, max_airtime",
        [(EU868, 8.0), (US915, 0.6), (UNRESTRICTED, 120.0)],
        ids=["EU868-budget", "US915-dwell", "UNRESTRICTED"],
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_same_answers(self, region, max_airtime, data):
        bursts = data.draw(_bursts(region, max_airtime))
        packed = DutyCycleAccountant(region)
        reference = TupleWindowAccountant(region)
        now = 0.0
        recorded = compactions = 0
        for gap, first_airtime, calls in bursts:
            for name, step, airtime in [("record", gap, first_airtime)] + calls:
                now += step
                dropped = recorded - len(packed._starts)
                answer = _answer(packed, name, now, airtime)
                assert answer == _answer(reference, name, now, airtime)
                recorded += name == "record" and answer is None
                compactions += recorded - len(packed._starts) > dropped
        assert packed.total_airtime_s == reference.total_airtime_s
        assert packed.window_utilisation(now) == reference.window_utilisation(now)
        assert compactions >= 2
