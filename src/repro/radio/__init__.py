"""Simulated SX127x-class radio driver.

LoRaMesher's protocol logic talks to its radio through a narrow driver
interface (RadioLib on real hardware).  :class:`~repro.radio.driver.Radio`
reproduces that interface on top of the simulated medium: a half-duplex
state machine (SLEEP / STANDBY / RX / TX / CAD) with tx-done and rx-done
callbacks, CRC reporting, and channel-activity detection.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.radio.driver": ("Radio", "RadioError", "RadioBusyError"),
    "repro.radio.states": ("RadioState",),
    "repro.radio.frames": ("ReceivedFrame",),
})
