"""Link budget: RSSI, SNR, sensitivity, and capture margins.

Reception of a LoRa frame is decided in two steps, matching how real
SX127x receivers behave and how validated LoRa simulators model them:

1. **Sensitivity** — the received signal power must exceed the per-SF
   demodulation floor (equivalently, SNR above the per-SF SNR floor).
2. **Capture / co-channel interference** — a frame survives interference
   from an overlapping same-SF transmission if it is at least
   :data:`CAPTURE_THRESHOLD_DB` stronger (the LoRa capture effect);
   otherwise both frames are lost.  Different SFs are treated as
   quasi-orthogonal with a small inter-SF rejection margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.phy.modulation import Bandwidth, LoRaParams, SpreadingFactor
from repro.phy.pathloss import PathLossModel, Position

#: Per-SF SNR demodulation floor in dB (SX127x datasheet, table 13).
_SNR_FLOOR_DB = {
    SpreadingFactor.SF7: -7.5,
    SpreadingFactor.SF8: -10.0,
    SpreadingFactor.SF9: -12.5,
    SpreadingFactor.SF10: -15.0,
    SpreadingFactor.SF11: -17.5,
    SpreadingFactor.SF12: -20.0,
}

#: LoRa same-SF capture threshold (dB). A frame >= 6 dB above the sum of
#: co-channel interferers is demodulated correctly (Goursaud & Gorce).
CAPTURE_THRESHOLD_DB = 6.0

#: Rejection margin for interference from a *different* SF on the same
#: channel: the interferer must be this much stronger to corrupt the frame.
INTER_SF_REJECTION_DB = 16.0

#: Receiver noise figure used for the thermal-noise floor (dB).
NOISE_FIGURE_DB = 6.0


#: Noise floor per bandwidth at the default noise figure, precomputed so
#: the reception hot path never touches ``math.log10``.
_NOISE_FLOOR_DBM: Dict[Bandwidth, float] = {
    bw: -174.0 + 10.0 * math.log10(bw.hz) + NOISE_FIGURE_DB for bw in Bandwidth
}

#: Sensitivity per (bandwidth, spreading factor) at the default noise
#: figure: noise floor + per-SF SNR demodulation floor.
_SENSITIVITY_DBM: Dict[Tuple[Bandwidth, SpreadingFactor], float] = {
    (bw, sf): _NOISE_FLOOR_DBM[bw] + _SNR_FLOOR_DB[sf]
    for bw in Bandwidth
    for sf in SpreadingFactor
}


def snr_floor_db(sf: SpreadingFactor) -> float:
    """Minimum SNR (dB) at which the SX127x demodulates a frame at ``sf``."""
    return _SNR_FLOOR_DB[sf]


def noise_floor_dbm(bandwidth: Bandwidth, *, noise_figure_db: float = NOISE_FIGURE_DB) -> float:
    """Thermal noise floor in dBm: ``-174 + 10 log10(BW) + NF``."""
    if noise_figure_db == NOISE_FIGURE_DB:
        return _NOISE_FLOOR_DBM[bandwidth]
    return -174.0 + 10.0 * math.log10(bandwidth.hz) + noise_figure_db


def sensitivity_dbm(params: LoRaParams) -> float:
    """Receiver sensitivity in dBm for the given modulation parameters."""
    return _SENSITIVITY_DBM[(params.bandwidth, params.spreading_factor)]


@dataclass(frozen=True, slots=True)
class LinkQuality:
    """Computed quality of a candidate reception."""

    rssi_dbm: float
    snr_db: float
    above_sensitivity: bool


#: Memo entries kept per LinkBudget before the cache is wholesale cleared
#: (static topologies stay far below this; mobility runs would otherwise
#: grow without bound).
_LINK_CACHE_MAX = 65_536


class LinkBudget:
    """Computes received power and demodulation feasibility over a
    :class:`~repro.phy.pathloss.PathLossModel`.

    Antenna gains default to 0 dBi (the demo's PCB antennas); a systematic
    cable/connector loss can be folded into ``fixed_loss_db``.

    Evaluations are memoized per (tx position, rx position, params): for
    the static topologies of the paper's experiments the same few hundred
    links are evaluated thousands of times per simulated hour, so the
    pathloss model runs once per link instead of once per frame.  The memo
    is disabled automatically for time-varying channels (block fading) and
    can be dropped explicitly with :meth:`invalidate` — the mobility layer
    does so whenever a node moves.  Mutating the public gain/loss
    attributes mid-run also requires an :meth:`invalidate` call.
    """

    def __init__(
        self,
        pathloss: PathLossModel,
        *,
        tx_antenna_gain_dbi: float = 0.0,
        rx_antenna_gain_dbi: float = 0.0,
        fixed_loss_db: float = 0.0,
    ) -> None:
        self.pathloss = pathloss
        self.tx_antenna_gain_dbi = tx_antenna_gain_dbi
        self.rx_antenna_gain_dbi = rx_antenna_gain_dbi
        self.fixed_loss_db = fixed_loss_db
        #: Memoization switch; auto-off for time-varying channels.  Tests
        #: flip it to compare cached vs uncached runs.
        self.cache_enabled: bool = not pathloss.time_varying
        # Reciprocal pathloss + equal antenna gains means quality(a, b) is
        # bit-identical to quality(b, a): fold both directions into one
        # memo slot.  Recomputed by invalidate() in case the public gain
        # attributes were edited (the documented mutation protocol).
        self._symmetric: bool = (
            pathloss.reciprocal and tx_antenna_gain_dbi == rx_antenna_gain_dbi
        )
        # Keyed by (tx_pos, rx_pos, id(params)); _params_refs pins each
        # params object so its id() cannot be recycled while cached.
        self._quality_cache: Dict[tuple, LinkQuality] = {}
        self._params_refs: Dict[int, LoRaParams] = {}
        # id(params) -> (params, noise_floor_dbm, snr_floor_db): enum-keyed
        # table lookups cost a Python-level Enum.__hash__ each, so resolve
        # them once per params object (the pinned params ref keeps id()
        # stable).  Survives invalidate() — floors depend only on params.
        self._floor_cache: Dict[int, tuple] = {}
        #: Bumped by every :meth:`invalidate`, so holders of values derived
        #: from this budget (the medium's reachable sets, link qualities
        #: and range bounds) know to drop them too.
        self.generation: int = 0

    def invalidate(self) -> None:
        """Drop every memoized link quality.

        Call after anything that changes the channel realisation for an
        existing position pair: ``pathloss.reset()``, a new shadowing
        draw, or edits to the gain/loss attributes.  (Node movement keys
        into fresh cache slots by itself, but the mobility layer calls
        this anyway to keep the cache from accumulating stale positions.)
        Bumps :attr:`generation`.
        """
        self._quality_cache.clear()
        self._params_refs.clear()
        self._symmetric = (
            self.pathloss.reciprocal
            and self.tx_antenna_gain_dbi == self.rx_antenna_gain_dbi
        )
        self.generation += 1

    def received_power_dbm(
        self, tx_pos: Position, rx_pos: Position, params: LoRaParams
    ) -> float:
        """RSSI (dBm) at ``rx_pos`` for a transmission from ``tx_pos``."""
        if self.cache_enabled:
            return self.evaluate(tx_pos, rx_pos, params).rssi_dbm
        return self._compute_rssi(tx_pos, rx_pos, params)

    def _compute_rssi(self, tx_pos: Position, rx_pos: Position, params: LoRaParams) -> float:
        loss = self.pathloss.loss_db(tx_pos, rx_pos, params.frequency_mhz)
        return (
            params.tx_power_dbm
            + self.tx_antenna_gain_dbi
            + self.rx_antenna_gain_dbi
            - self.fixed_loss_db
            - loss
        )

    def evaluate(self, tx_pos: Position, rx_pos: Position, params: LoRaParams) -> LinkQuality:
        """Full link evaluation: RSSI, SNR against thermal noise, and
        whether the frame clears the demodulation floor."""
        if not self.cache_enabled:
            return self._compute_quality(tx_pos, rx_pos, params)
        cache = self._quality_cache
        if self._symmetric and rx_pos < tx_pos:
            key = (rx_pos, tx_pos, id(params))
        else:
            key = (tx_pos, rx_pos, id(params))
        quality = cache.get(key)
        if quality is None:
            if len(cache) >= _LINK_CACHE_MAX:
                # A full memo is emptied, not invalidated: the channel is
                # unchanged, so values derived from it stay valid.
                cache.clear()
                self._params_refs.clear()
            self._params_refs[id(params)] = params
            quality = self._compute_quality(tx_pos, rx_pos, params)
            cache[key] = quality
        return quality

    def _compute_quality(
        self, tx_pos: Position, rx_pos: Position, params: LoRaParams
    ) -> LinkQuality:
        # Inlined _compute_rssi: this is the memo-miss path, so every new
        # link pair pays it once.
        rssi = (
            params.tx_power_dbm
            + self.tx_antenna_gain_dbi
            + self.rx_antenna_gain_dbi
            - self.fixed_loss_db
            - self.pathloss.loss_db(tx_pos, rx_pos, params.frequency_mhz)
        )
        floors = self._floor_cache.get(id(params))
        if floors is None or floors[0] is not params:
            floors = self._floor_cache[id(params)] = (
                params,
                _NOISE_FLOOR_DBM[params.bandwidth],
                _SNR_FLOOR_DB[params.spreading_factor],
            )
        snr = rssi - floors[1]
        return LinkQuality(
            rssi_dbm=rssi,
            snr_db=snr,
            above_sensitivity=snr >= floors[2],
        )

    def in_range(self, tx_pos: Position, rx_pos: Position, params: LoRaParams) -> bool:
        """Convenience: can a frame at these parameters be heard at all?"""
        return self.evaluate(tx_pos, rx_pos, params).above_sensitivity


def survives_interference(
    signal_dbm: float,
    signal_sf: SpreadingFactor,
    interferer_dbm: float,
    interferer_sf: SpreadingFactor,
) -> bool:
    """Whether a frame survives one overlapping interferer.

    Same-SF: capture effect with :data:`CAPTURE_THRESHOLD_DB` margin.
    Different-SF: quasi-orthogonal; only a much stronger interferer
    (>= :data:`INTER_SF_REJECTION_DB` above the signal) corrupts it.
    """
    if signal_sf == interferer_sf:
        return signal_dbm - interferer_dbm >= CAPTURE_THRESHOLD_DB
    return interferer_dbm - signal_dbm < INTER_SF_REJECTION_DB
