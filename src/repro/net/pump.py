"""The transmit pump: the one place that decides how a frame gets on air.

Every stack — the mesh and its flooding, star and AODV baselines —
drains its outbox through a :class:`TxPump`, so all of them obey the
same regional rules.  One attempt runs these steps in order:

1. do nothing while the radio is transmitting or powered off;
2. encode the head of the outbox and compute its airtime;
3. drop (and count) a frame that can never fit the region's dwell limit;
4. with strict duty-cycle enforcement, drop (and count) a frame the
   budget refuses now;
5. otherwise hold it until ``max(resume - now, 0) + backoff()``;
6. listen before talk, deferring by ``cad_delay()`` up to
   ``cad_retries`` times;
7. transmit and record the duty.

What differs between stacks is data, not code: the backoff draw, the
CAD retry delay and the CAD retry count.  A pump with zero CAD retries
never senses the channel.  The radio's tx-done re-arms the pump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.phy.airtime import time_on_air
from repro.phy.regions import DutyCycleAccountant, Region
from repro.radio.driver import Radio
from repro.sim.kernel import EventHandle, Simulator
from repro.trace.events import EventKind, TraceRecorder


@dataclass
class TxStats:
    """What a pump counts (the mesh's ``NodeStats`` extends it)."""

    frames_sent: int = 0
    bytes_sent: int = 0
    duty_deferrals: int = 0
    cad_deferrals: int = 0
    strict_duty_drops: int = 0
    #: Frames dropped because their airtime exceeds the region's dwell
    #: limit (US915: 400 ms), which no amount of waiting can satisfy.
    dwell_drops: int = 0


class TxPump:
    """One node's duty-paced, listen-before-talk transmit loop.

    ``outbox`` is any queue with ``push``/``peek``/``pop`` (the pump peeks
    and pops only once the frame goes on air or is dropped); ``encode``
    turns its head into the frame bytes, which by default it already is.
    ``backoff`` draws the pre-send delay, ``cad_delay`` the wait after a
    busy channel.
    """

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        outbox: Any,
        stats: TxStats,
        *,
        region: Region,
        strict: bool,
        name: str,
        backoff: Callable[[], float],
        cad_retries: int = 0,
        cad_delay: Optional[Callable[[], float]] = None,
        encode: Callable[[Any], bytes] = bytes,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.radio = radio
        self.outbox = outbox
        self.stats = stats
        self.duty = DutyCycleAccountant(region)
        self.strict = strict
        self._backoff = backoff
        self._cad_retries = cad_retries
        self._cad_delay = cad_delay
        self._encode = encode
        self._trace = trace
        self._handle: Optional[EventHandle] = None
        self._cad_attempts = 0
        # Scheduler labels built once: the pump re-arms on every frame.
        self._pump_label = f"{name} pump"
        self._duty_label = f"{name} duty wait"
        self._cad_label = f"{name} cad wait"
        radio.on_tx_done = self.kick

    def submit(self, item: Any) -> bool:
        """Queue ``item`` and kick the pump; False when the outbox is full."""
        ok = self.outbox.push(item)
        self.kick()
        return ok

    def kick(self) -> None:
        """Arm an attempt after one backoff, unless one is pending."""
        if (
            not self.outbox
            or self.radio.transmitting
            or not self.radio.powered
            or (self._handle is not None and self._handle.active)
        ):
            return
        self._handle = self.sim.schedule(self._backoff(), self._try_send, label=self._pump_label)

    def cancel(self) -> None:
        """Drop the pending attempt (the outbox keeps its frames)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _try_send(self) -> None:
        self._handle = None
        radio = self.radio
        if radio.transmitting or not radio.powered:
            return
        item = self.outbox.peek()
        if item is None:
            return
        frame = self._encode(item)
        airtime = time_on_air(len(frame), radio.params)
        now = self.sim.now
        stats = self.stats

        # Duty-cycle pacing.
        duty = self.duty
        if not duty.can_transmit(now, airtime):
            if airtime > duty.region.max_dwell_time_s:
                # Never fits, whatever strict enforcement says: drop it.
                stats.dwell_drops += 1
                self._drop(item, "dwell")
                return
            if self.strict:
                stats.strict_duty_drops += 1
                self._drop(item, "duty")
                return
            stats.duty_deferrals += 1
            resume_at = duty.next_allowed_time(now, airtime)
            self._handle = self.sim.schedule(
                max(resume_at - now, 0.0) + self._backoff(),
                self._try_send,
                label=self._duty_label,
            )
            return

        # Listen before talk.
        if (
            self._cad_retries
            and radio.channel_activity()
            and self._cad_attempts < self._cad_retries
        ):
            self._cad_attempts += 1
            stats.cad_deferrals += 1
            self._handle = self.sim.schedule(
                self._cad_delay(), self._try_send, label=self._cad_label  # type: ignore[misc]
            )
            return
        self._cad_attempts = 0

        self.outbox.pop()
        duty.record(now, airtime)
        radio.transmit(frame)
        stats.frames_sent += 1
        stats.bytes_sent += len(frame)
        trace = self._trace
        if trace is not None:
            if trace.enabled:
                trace.record(
                    now,
                    radio.node_id,
                    EventKind.FRAME_SENT,
                    packet=type(item).__name__,
                    bytes=len(frame),
                    airtime_ms=round(airtime * 1000, 3),
                )
            else:
                trace.tally(EventKind.FRAME_SENT)

    def _drop(self, item: Any, reason: str) -> None:
        self.outbox.pop()
        if self._trace is not None:
            self._trace.record(
                self.sim.now,
                self.radio.node_id,
                EventKind.QUEUE_DROP,
                packet=type(item).__name__,
                reason=reason,
            )
        self.kick()
