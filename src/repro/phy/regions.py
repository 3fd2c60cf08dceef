"""Regional regulatory parameters and duty-cycle accounting.

The demo operated in the EU 868 MHz band, where a device may occupy the
shared sub-band for at most 1% of time (ETSI EN 300 220).  LoRaMesher's
beacon period and queue pacing are designed around this budget, so the
reproduction enforces it explicitly: every node owns a
:class:`DutyCycleAccountant` that tracks transmit airtime over a sliding
window and answers "may I transmit this frame now, and if not, when?".
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass


@dataclass(frozen=True)
class Region:
    """Regulatory envelope for one region/sub-band."""

    name: str
    duty_cycle: float  # fraction of time a device may transmit (0..1]
    max_dwell_time_s: float  # maximum single-frame airtime (inf if none)
    max_eirp_dbm: float
    window_s: float = 3600.0  # averaging window for the duty cycle

    def __post_init__(self) -> None:
        if not 0 < self.duty_cycle <= 1:
            raise ValueError(f"duty cycle must be in (0, 1], got {self.duty_cycle}")
        if self.window_s <= 0:
            raise ValueError("duty-cycle window must be positive")


#: ETSI EN 300 220 g1 sub-band (868.0–868.6 MHz): 1% duty cycle, 14 dBm ERP.
EU868 = Region(name="EU868", duty_cycle=0.01, max_dwell_time_s=float("inf"), max_eirp_dbm=14.0)

#: FCC part 15.247 (US 915 MHz): no duty cycle, but 400 ms dwell per channel.
US915 = Region(name="US915", duty_cycle=1.0, max_dwell_time_s=0.4, max_eirp_dbm=30.0)

#: A permissive region for unconstrained experiments.
UNRESTRICTED = Region(
    name="UNRESTRICTED", duty_cycle=1.0, max_dwell_time_s=float("inf"), max_eirp_dbm=30.0
)


class DutyCycleViolation(Exception):
    """Raised when a frame would break the regulatory envelope and the
    caller asked for strict enforcement."""


class DutyCycleAccountant:
    """Sliding-window duty-cycle tracker for one transmitter.

    Records every transmission ``(start, airtime)`` and answers whether a
    prospective frame fits the regional budget over the trailing window.
    The window is two packed ``array('d')`` columns, starts and airtimes,
    read from a head index: a record costs 16 bytes, where a tuple of two
    floats costs about 100.  Pruning advances the head; the dead prefix
    is dropped in one slice once it is at least half the columns, so
    after every prune they hold at most twice the records still inside
    the window.  The predefined regions' window is an hour, so a run
    shorter than that keeps every frame it sent.
    """

    def __init__(self, region: Region) -> None:
        self.region = region
        self._starts = array("d")
        self._airtimes = array("d")
        self._head = 0  # first live record; the ones before it aged out
        self._total_airtime: float = 0.0
        self._window_airtime: float = 0.0

    @property
    def total_airtime_s(self) -> float:
        """Lifetime transmit airtime in seconds (never pruned)."""
        return self._total_airtime

    def record(self, now: float, airtime_s: float) -> None:
        """Account a transmission that starts at ``now``."""
        if airtime_s < 0:
            raise ValueError("airtime must be >= 0")
        if airtime_s > self.region.max_dwell_time_s:
            raise DutyCycleViolation(
                f"frame airtime {airtime_s * 1000:.1f} ms exceeds {self.region.name} "
                f"dwell limit {self.region.max_dwell_time_s * 1000:.0f} ms"
            )
        self._prune(now)
        self._starts.append(now)
        self._airtimes.append(airtime_s)
        self._total_airtime += airtime_s
        self._window_airtime += airtime_s

    def window_utilisation(self, now: float) -> float:
        """Fraction of the trailing window spent transmitting."""
        self._prune(now)
        return self._window_airtime / self.region.window_s

    def can_transmit(self, now: float, airtime_s: float) -> bool:
        """Whether a frame of ``airtime_s`` fits the budget right now."""
        if airtime_s > self.region.max_dwell_time_s:
            return False
        self._prune(now)
        budget = self.region.duty_cycle * self.region.window_s
        return self._window_airtime + airtime_s <= budget

    def next_allowed_time(self, now: float, airtime_s: float) -> float:
        """Earliest time at which a frame of ``airtime_s`` may start.

        Returns ``now`` when it already fits.  Otherwise walks the live
        records forward until enough airtime has aged out of the window.
        """
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
        airtimes = self._airtimes
        for i in range(self._head, len(airtimes)):
            freed += airtimes[i]
            if freed >= needed:
                return self._starts[i] + self.region.window_s
        # Should be unreachable: pruning keeps _window_airtime == sum(live records).
        raise DutyCycleViolation("duty-cycle accounting is inconsistent")

    def _prune(self, now: float) -> None:
        horizon = now - self.region.window_s
        starts, head = self._starts, self._head
        end = len(starts)
        if head == end or not starts[head] <= horizon:
            # Nothing ages out, and only a prune can take the sum below 0.
            return
        airtimes = self._airtimes
        window_airtime = self._window_airtime
        while head < end and starts[head] <= horizon:
            window_airtime -= airtimes[head]
            head += 1
        if 2 * head >= end:
            del starts[:head]
            del airtimes[:head]
            head = 0
        self._head = head
        if window_airtime < 0:  # float drift guard
            window_airtime = 0.0
        self._window_airtime = window_airtime
