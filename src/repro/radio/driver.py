"""The half-duplex radio state machine.

:class:`Radio` is the simulation stand-in for "RadioLib on an SX127x".
Protocol code interacts with it exactly the way LoRaMesher interacts with
its radio:

* ``start_receive()`` puts the radio in continuous RX,
* ``transmit(payload)`` leaves RX, emits the frame on the medium (the
  radio is deaf for the frame's airtime), then fires ``on_tx_done`` and
  returns to RX automatically (matching LoRaMesher's post-TX behaviour),
* received frames arrive via the ``on_receive`` callback as
  :class:`~repro.radio.frames.ReceivedFrame` records, including
  CRC-corrupted ones (collisions),
* ``channel_activity()`` is a CAD poll used for listen-before-talk.

Energy accounting hooks record time spent per state so the metrics layer
can compute battery figures without the driver knowing about joules.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.phy.airtime import time_on_air
from repro.phy.modulation import LoRaParams
from repro.phy.pathloss import Position
from repro.radio.frames import ReceivedFrame
from repro.radio.states import RadioState
from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    # Annotations only: the medium imports ReceivedFrame from this
    # package, so a runtime import here would be circular.
    from repro.medium.channel import Medium

logger = logging.getLogger(__name__)


class RadioError(Exception):
    """Base error for radio driver misuse."""


class RadioBusyError(RadioError):
    """Raised when ``transmit`` is called while a transmission is active."""


class Radio:
    """A simulated SX127x attached to a :class:`~repro.medium.channel.Medium`.

    Parameters
    ----------
    sim:
        The shared simulation kernel.
    medium:
        The shared channel; the radio attaches itself on construction.
    node_id:
        Unique identity on the medium (LoRaMesher's 16-bit address works).
    position:
        Planar position in metres; mutable via :meth:`move_to` for
        mobility scenarios.
    params:
        Modulation parameters used for both TX and RX (LoRaMesher runs the
        whole mesh on one shared parameter set).
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        node_id: int,
        position: Position,
        params: LoRaParams,
    ) -> None:
        self._sim = sim
        self._medium = medium
        self.node_id = node_id
        self._position = position
        self._params = params
        self._state = RadioState.STANDBY
        self._state_since = sim.now
        self._rx_since: Optional[float] = None
        self._tx_end: Optional[float] = None
        self._state_time: Dict[RadioState, float] = {s: 0.0 for s in RadioState}
        self._powered = True

        #: Protocol callback for every demodulated frame (incl. CRC-bad).
        self.on_receive: Optional[Callable[[ReceivedFrame], None]] = None
        #: Protocol callback after each completed transmission.
        self.on_tx_done: Optional[Callable[[], None]] = None

        # Counters (driver-level diagnostics; the metrics layer aggregates).
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_crc_failed = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.tx_airtime_s = 0.0
        # Built once: transmit() runs for every frame.
        self._txdone_label = f"radio{node_id} txdone"

        medium.attach(self)
        # Mirror RX state into the medium so frame completion can account
        # for out-of-range listeners in aggregate (see Medium docs).
        medium.register_state_reporter(node_id, self._rx_since, params)

    # ------------------------------------------------------------------
    # Properties the medium consults
    # ------------------------------------------------------------------
    @property
    def position(self) -> Position:
        """Current planar position (metres)."""
        return self._position

    @property
    def rx_params(self) -> Optional[LoRaParams]:
        """Modulation the radio listens with, or None when not in RX."""
        return self._params if self._state is RadioState.RX else None

    def listening_throughout(self, start: float, end: float) -> bool:
        """Continuous-RX check the medium uses for half-duplex semantics."""
        if not self._powered or self._state is not RadioState.RX:
            return False
        return self._rx_since is not None and self._rx_since <= start

    def rx_params_throughout(self, start: float, end: float) -> Optional[LoRaParams]:
        """``rx_params`` and :meth:`listening_throughout` folded into one
        call — the medium asks both questions for every attached radio on
        every completed frame."""
        if (
            self._state is not RadioState.RX
            or not self._powered
            or self._rx_since is None
            or self._rx_since > start
        ):
            return None
        return self._params

    def deliver(self, frame: ReceivedFrame) -> None:
        """Medium entry point: a frame finished and this radio heard it.

        ``frame`` is the medium's own record (``crc_ok`` False after a
        collision); the radio counts it and hands that same object to
        ``on_receive``.  A powered-off radio ignores it.
        """
        if not self._powered:
            return
        if frame.crc_ok:
            self.frames_received += 1
            self.bytes_received += len(frame.payload)
        else:
            self.frames_crc_failed += 1
        if self.on_receive is not None:
            self.on_receive(frame)

    # ------------------------------------------------------------------
    # State control
    # ------------------------------------------------------------------
    @property
    def state(self) -> RadioState:
        """Current operating state."""
        return self._state

    @property
    def params(self) -> LoRaParams:
        """Current modulation parameters."""
        return self._params

    def configure(self, params: LoRaParams) -> None:
        """Retune the radio; drops out of RX momentarily like real silicon
        (a reception in progress across the retune is lost)."""
        was_rx = self._state is RadioState.RX
        self._enter(RadioState.STANDBY)
        self._params = params
        self._medium.notify_rx_state(self.node_id, self._rx_since, params)
        if was_rx:
            self.start_receive()

    def start_receive(self) -> None:
        """Enter continuous receive mode."""
        self._require_powered()
        if self._state is RadioState.TX:
            raise RadioBusyError(f"radio {self.node_id}: cannot RX during TX")
        self._enter(RadioState.RX)

    def standby(self) -> None:
        """Enter standby (deaf, low power, instantly ready)."""
        self._require_powered()
        if self._state is RadioState.TX:
            raise RadioBusyError(f"radio {self.node_id}: cannot standby during TX")
        self._enter(RadioState.STANDBY)

    def sleep(self) -> None:
        """Enter sleep (deaf, lowest power)."""
        self._require_powered()
        if self._state is RadioState.TX:
            raise RadioBusyError(f"radio {self.node_id}: cannot sleep during TX")
        self._enter(RadioState.SLEEP)

    def power_off(self) -> None:
        """Simulate node death: detach from the medium, freeze counters."""
        if not self._powered:
            return
        self._enter(RadioState.SLEEP)
        self._powered = False
        self._medium.detach(self.node_id)

    def power_on(self) -> None:
        """Re-attach a previously powered-off radio (node recovery)."""
        if self._powered:
            return
        self._powered = True
        self._medium.attach(self)
        self._medium.register_state_reporter(self.node_id, self._rx_since, self._params)
        self._enter(RadioState.STANDBY)

    @property
    def powered(self) -> bool:
        """Whether the node is alive on the medium."""
        return self._powered

    def move_to(self, position: Position) -> None:
        """Relocate the radio (mobility support).

        Notifies the medium so cached reachability sets and memoized link
        qualities are recomputed against the new geometry.
        """
        if position == self._position:
            return
        self._position = position
        self._medium.notify_moved(self.node_id)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, payload: bytes) -> float:
        """Put ``payload`` on the air; returns the frame's airtime.

        The radio leaves RX for the duration (half-duplex), then fires
        ``on_tx_done`` and re-enters continuous RX — the same automatic
        RX-resume LoRaMesher configures.
        """
        self._require_powered()
        if self._state is RadioState.TX:
            raise RadioBusyError(f"radio {self.node_id}: transmit while TX in progress")
        if len(payload) > 255:
            raise RadioError(f"payload {len(payload)} B exceeds the 255 B LoRa PHY limit")
        airtime = time_on_air(len(payload), self._params)
        self._enter(RadioState.TX)
        self._tx_end = self._sim.now + airtime
        self._medium.begin_transmission(
            self.node_id, self._position, self._params, payload, airtime
        )
        self.frames_sent += 1
        self.bytes_sent += len(payload)
        self.tx_airtime_s += airtime
        self._sim.schedule(airtime, self._finish_tx, label=self._txdone_label)
        return airtime

    def _finish_tx(self) -> None:
        self._tx_end = None
        self._enter(RadioState.RX)
        if self.on_tx_done is not None:
            self.on_tx_done()

    @property
    def transmitting(self) -> bool:
        """Whether a transmission is currently in progress."""
        return self._state is RadioState.TX

    # ------------------------------------------------------------------
    # Channel sensing
    # ------------------------------------------------------------------
    def channel_activity(self) -> bool:
        """CAD-style poll: is the channel audibly busy right now?

        Real CAD takes ~2 symbol times; we model it as instantaneous but
        callers (the mesher's listen-before-talk) add their own deferral,
        which dominates.
        """
        self._require_powered()
        return self._medium.channel_busy(
            self._position, self._params, exclude_sender=self.node_id
        )

    # ------------------------------------------------------------------
    # Energy bookkeeping
    # ------------------------------------------------------------------
    def state_times(self) -> Dict[RadioState, float]:
        """Cumulative seconds spent per state, including the current stay."""
        times = dict(self._state_time)
        times[self._state] += self._sim.now - self._state_since
        return times

    # ------------------------------------------------------------------
    def _enter(self, state: RadioState) -> None:
        now = self._sim.now
        self._state_time[self._state] += now - self._state_since
        self._state = state
        self._state_since = now
        self._rx_since = now if state is RadioState.RX else None
        self._medium.notify_rx_state(self.node_id, self._rx_since, self._params)

    def _require_powered(self) -> None:
        if not self._powered:
            raise RadioError(f"radio {self.node_id} is powered off")

    def __repr__(self) -> str:
        return (
            f"Radio(node={self.node_id:#06x}, state={self._state.value}, "
            f"pos={self._position})"
        )
