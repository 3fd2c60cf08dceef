"""The discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of timestamped callbacks and a
simulated clock.  Everything else in the stack — PHY transmissions, radio
state transitions, LoRaMesher timers — is expressed as events scheduled on
one shared kernel, which makes whole-network runs fully deterministic for a
given master seed.

Determinism rules
-----------------
* Events at equal timestamps fire in scheduling order (a monotonically
  increasing sequence number breaks ties).
* The kernel never consults wall-clock time.
* All randomness must come from :class:`repro.sim.rng.RngRegistry` streams.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Optional, Union

from repro.sim.errors import SchedulingError, SimulationError


#: Events scheduled with this priority run before ordinary events that share
#: the same timestamp (used by the medium to finalise receptions before
#: protocol timers observe them).
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Labels may be given as plain strings or as zero-argument callables that
#: are only invoked when something (a profiler, a log line, a handle
#: accessor) actually reads the label — hot paths schedule millions of
#: events whose labels are never looked at.
Label = Union[str, Callable[[], str]]


class EventHandle:
    """A scheduled event, and the cancellable reference to it.

    Returned by :meth:`Simulator.schedule`: the handle *is* the kernel's
    event record, so scheduling allocates one object besides the heap
    entry.  The heap stores ``(time, priority, seq, handle)`` tuples so
    that heap sift comparisons stay in C (the unique ``seq`` guarantees
    the tuple comparison never falls through to the handle).

    Cancelling an already-fired or already-cancelled event is a harmless
    no-op, which lets protocol code unconditionally cancel timers on
    state transitions.
    """

    __slots__ = ("time", "callback", "cancelled", "fired", "_label", "_sim")

    def __init__(
        self,
        sim: "Simulator",
        time: float,
        callback: Callable[[], None],
        label: Label = "",
    ) -> None:
        #: Absolute simulated time at which the event will (or did) fire.
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._label = label
        self._sim = sim

    @property
    def label(self) -> str:
        """Human-readable label attached at scheduling time (a lazy label
        is built here, on read)."""
        label = self._label
        return label if isinstance(label, str) else label()

    @property
    def active(self) -> bool:
        """True until the event is cancelled (firing does not clear it)."""
        return not self.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if not self.fired:
                self._sim._pending -= 1


class Simulator:
    """A deterministic discrete-event scheduler with a simulated clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run(until=10.0)

    The kernel is single-threaded and re-entrant: callbacks may freely
    schedule further events, including at the current instant.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, EventHandle]] = []
        self._now: float = 0.0
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._events_fired: int = 0
        #: Live (non-cancelled, not-yet-fired) events in the queue,
        #: maintained on push/cancel/pop so ``pending`` is O(1).
        self._pending: int = 0
        #: Optional observability hook (see :mod:`repro.obs.profiler`).
        #: When set, every executed event is timed with wall-clock and
        #: reported via ``profiler.record(label, callback, elapsed_s)``.
        #: Costs nothing when None.
        self.profiler: Optional[Any] = None
        # Wall-clock anchor for observability timestamps (see
        # ``wall_elapsed``); never read by the kernel itself.
        self._wall_start: float = perf_counter()

    def wall_elapsed(self) -> float:
        """Wall-clock seconds since this simulator was constructed.

        Purely diagnostic: the event store records it next to every
        simulated timestamp so live dashboards can show how far the
        sim clock runs ahead of (or behind) real time.  Nothing in the
        kernel or the protocol stack reads it, so results stay
        deterministic.
        """
        return perf_counter() - self._wall_start

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (diagnostic)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still in the queue.

        Maintained incrementally on schedule/cancel/fire, so reading it is
        O(1) even with millions of queued events.
        """
        return self._pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: Label = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative.  Returns an :class:`EventHandle`
        that can cancel the event before it fires.  ``label`` may be a
        string or a zero-argument callable built only when the label is
        actually read (profiler attached, handle inspected).
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        # Inlined schedule_at (minus the past-time guard, which a
        # non-negative delay cannot trip): protocol layers schedule one or
        # more events per frame, making this the kernel's hottest entry.
        if not callable(callback):
            raise SchedulingError(f"callback {callback!r} is not callable")
        time = self._now + delay
        event = EventHandle(self, time, callback, label)
        heapq.heappush(self._heap, (time, priority, self._seq, event))
        self._seq += 1
        self._pending += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: Label = "",
    ) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise SchedulingError(f"cannot schedule at {time} < now {self._now}")
        if not callable(callback):
            raise SchedulingError(f"callback {callback!r} is not callable")
        event = EventHandle(self, time, callback, label)
        heapq.heappush(self._heap, (time, priority, self._seq, event))
        self._seq += 1
        self._pending += 1
        return event

    def call_soon(self, callback: Callable[[], None], *, label: Label = "") -> EventHandle:
        """Schedule ``callback`` at the current instant, after pending
        same-time events already in the queue."""
        return self.schedule(0.0, callback, label=label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event.

        Returns ``True`` if an event fired, ``False`` if the queue is empty.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                continue
            if event.time < self._now:  # pragma: no cover - defensive
                raise SimulationError("event queue time went backwards")
            self._now = event.time
            self._events_fired += 1
            event.fired = True
            self._pending -= 1
            self._execute(event)
            return True
        return False

    def _execute(self, event: EventHandle) -> None:
        profiler = self.profiler
        if profiler is None:
            event.callback()
            return
        start = perf_counter()
        event.callback()
        profiler.record(event.label, event.callback, perf_counter() - start)

    def run(self, until: Optional[float] = None, *, max_events: Optional[int] = None) -> float:
        """Run events until the horizon ``until`` (or queue exhaustion).

        When ``until`` is given the clock is advanced to exactly ``until``
        on return even if the queue drained earlier, so back-to-back
        ``run`` calls observe a continuous timeline.  ``max_events`` bounds
        runaway simulations (useful in tests).

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap and not self._stopped:
                event = heap[0][3]
                if event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and event.time > until:
                    break
                heappop(heap)
                self._now = event.time
                self._events_fired += 1
                event.fired = True
                self._pending -= 1
                # Inlined dispatch: the profiled path lives in _execute,
                # the common (unprofiled) path skips the extra call frame.
                if self.profiler is None:
                    event.callback()
                else:
                    self._execute(event)
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"max_events={max_events} exceeded at t={self._now:.6f}"
                    )
            if until is not None and not self._stopped and until > self._now:
                self._now = until
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request that the current :meth:`run` return after the running
        callback completes. Pending events remain queued."""
        self._stopped = True

    def advance_to(self, barrier: float) -> int:
        """Run to the conservative window barrier ``barrier`` (absolute
        simulated time) and land the clock exactly on it.

        The sharded runner (:mod:`repro.sim.shard`) slices one shard's
        timeline into windows with this: events at or before the barrier
        fire, the clock is left at exactly ``barrier`` even if the queue
        drained early (so back-to-back windows observe a continuous
        timeline), and the number of events executed inside the window
        comes back for per-shard load accounting.  Barriers must be
        monotonic — rewinding a shard is always a synchronisation bug,
        so it raises instead of silently no-opping.
        """
        if barrier < self._now:
            raise SchedulingError(
                f"window barrier {barrier} is behind the clock {self._now}"
            )
        before = self._events_fired
        self.run(until=barrier)
        return self._events_fired - before

    # ------------------------------------------------------------------
    # Convenience timer helpers
    # ------------------------------------------------------------------
    def periodic(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        jitter: Optional[Callable[[], float]] = None,
        label: str = "",
    ) -> "PeriodicTimer":
        """Create and start a cancellable periodic timer.

        ``jitter``, when provided, is called before every firing and its
        return value (seconds, may be negative but clamped at 0 total
        delay) is added to the period — this is how protocol layers model
        randomized beacon intervals without touching the kernel.
        """
        timer = PeriodicTimer(self, period, callback, jitter=jitter, label=label)
        timer.start(first_delay=first_delay)
        return timer


class PeriodicTimer:
    """A restartable periodic timer built on top of :class:`Simulator`.

    The callback runs every ``period`` seconds (plus optional per-firing
    jitter) until :meth:`cancel` is called.  Exceptions propagate and stop
    the timer — silent failure would mask protocol bugs.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        *,
        jitter: Optional[Callable[[], float]] = None,
        label: str = "",
    ) -> None:
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._jitter = jitter
        self._label = label
        self._handle: Optional[EventHandle] = None
        self._cancelled = False
        self._fired = 0

    @property
    def fired(self) -> int:
        """How many times the timer has fired."""
        return self._fired

    @property
    def active(self) -> bool:
        """True while the timer is armed."""
        return not self._cancelled

    @property
    def period(self) -> float:
        """Nominal period in seconds."""
        return self._period

    def start(self, *, first_delay: Optional[float] = None) -> None:
        """(Re-)arm the timer; the first firing happens after
        ``first_delay`` (default: one jittered period)."""
        self._cancelled = False
        delay = first_delay if first_delay is not None else self._next_delay()
        self._handle = self._sim.schedule(delay, self._fire, label=self._label)

    def cancel(self) -> None:
        """Stop the timer. Idempotent."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def reset(self) -> None:
        """Cancel any pending firing and re-arm from now."""
        self.cancel()
        self.start()

    def _next_delay(self) -> float:
        delay = self._period
        if self._jitter is not None:
            delay += self._jitter()
        return max(0.0, delay)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._fired += 1
        # Re-arm before running the callback so a callback that cancels the
        # timer wins over the re-arm.
        self._handle = self._sim.schedule(self._next_delay(), self._fire, label=self._label)
        self._callback()


def format_time(seconds: float) -> str:
    """Render a simulated timestamp as ``H:MM:SS.mmm`` for logs."""
    total_ms = int(round(seconds * 1000))
    ms = total_ms % 1000
    s = (total_ms // 1000) % 60
    m = (total_ms // 60_000) % 60
    h = total_ms // 3_600_000
    return f"{h}:{m:02d}:{s:02d}.{ms:03d}"


def any_to_label(obj: Any) -> str:
    """Best-effort short label for diagnostics."""
    name = getattr(obj, "name", None)
    if isinstance(name, str):
        return name
    return type(obj).__name__
