"""LoRa physical-layer models.

This package substitutes for the Semtech SX127x radio hardware the paper's
testbed used.  It provides:

* :mod:`repro.phy.modulation` — LoRa modulation parameter types (SF, BW,
  CR) and validation,
* :mod:`repro.phy.airtime` — the Semtech time-on-air formula (AN1200.22),
* :mod:`repro.phy.pathloss` — propagation models (free space, log-distance
  with shadowing, indoor multi-wall),
* :mod:`repro.phy.link` — link budget: RSSI/SNR at a receiver, per-SF
  demodulation floors, sensitivity, capture-effect margins,
* :mod:`repro.phy.regions` — regional regulatory parameters (EU868 duty
  cycle, dwell time) and a per-node duty-cycle accountant.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.phy.modulation": ("SpreadingFactor", "Bandwidth", "CodingRate", "LoRaParams"),
    "repro.phy.airtime": (
        "symbol_duration", "preamble_duration", "payload_symbols", "time_on_air",
    ),
    "repro.phy.pathloss": (
        "PathLossModel", "FreeSpacePathLoss", "LogDistancePathLoss", "MultiWallPathLoss",
    ),
    "repro.phy.link": (
        "LinkBudget", "noise_floor_dbm", "sensitivity_dbm", "snr_floor_db", "CAPTURE_THRESHOLD_DB",
    ),
    "repro.phy.regions": ("DutyCycleAccountant", "Region", "EU868", "US915"),
    "repro.phy.fading": ("BlockFadingPathLoss",),
})
