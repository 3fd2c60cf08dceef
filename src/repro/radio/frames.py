"""Frame record handed from the radio driver to the protocol layer.

The medium builds one per (transmission, listener) pair that was heard,
and the driver passes that object on unchanged (see
:meth:`repro.radio.driver.Radio.deliver`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.phy.modulation import LoRaParams


@dataclass(slots=True)
class ReceivedFrame:
    """One frame as seen by the protocol layer.

    ``crc_ok`` is False for frames corrupted by a collision — LoRaMesher
    drops those at the packet service, exactly like the firmware drops
    RxDone interrupts flagged with PayloadCrcError.

    Not frozen: the medium builds one per heard (frame, listener) pair,
    and a frozen dataclass's ``__init__`` costs about three times as much.
    Receivers read it and never write it.
    """

    payload: bytes
    rssi_dbm: float
    snr_db: float
    crc_ok: bool
    received_at: float
    params: LoRaParams
    #: Simulator-side identity of the transmitting radio (-1 when
    #: unknown).  Real LoRa hardware has no such field — protocol logic
    #: must never branch on it; it exists for diagnostics only (the
    #: ping-pong forwarding metric and the invariant checker).
    sender_id: int = -1

    @property
    def size(self) -> int:
        """PHY payload length in bytes."""
        return len(self.payload)
