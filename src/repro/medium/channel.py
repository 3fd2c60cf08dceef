"""In-flight transmission tracking and reception resolution.

The model follows the validated LoRaSim / ns-3 LoRa methodology:

* A frame is *receivable* at a listener if the listener was in continuous
  receive mode for the frame's whole duration, tuned to the same
  frequency/SF/BW, and the received SNR clears the per-SF demodulation
  floor.
* A receivable frame then survives interference if, for **every**
  transmission that overlapped it in time on the same frequency, the
  pairwise capture rule of :func:`repro.phy.link.survives_interference`
  holds at that listener.
* Reception outcomes are resolved at frame end, with kernel priority
  ``PRIORITY_HIGH`` so that protocol timers scheduled for the same instant
  observe the delivered frame.

Simplifications relative to silicon (documented in DESIGN.md): no
preamble-lock modelling (the stronger frame always captures), and
interference is evaluated pairwise rather than as aggregate noise — both
standard in the literature and conservative for protocol evaluation.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Protocol, Set, Tuple, Union

from repro.phy import batch as _batch
from repro.phy.link import (
    CAPTURE_THRESHOLD_DB,
    INTER_SF_REJECTION_DB,
    LinkBudget,
    LinkQuality,
    noise_floor_dbm,
    sensitivity_dbm,
    snr_floor_db,
    survives_interference,
)
from repro.phy.modulation import LoRaParams
from repro.phy.pathloss import Position
from repro.medium.spatial import SpatialGrid
from repro.radio.frames import ReceivedFrame
from repro.sim.kernel import PRIORITY_HIGH, Simulator


class MediumListener(Protocol):
    """What the medium needs to know about an attached radio.

    A listener attaches with its RX window and tuning
    (:meth:`Medium.attach`) and then reports every change to either
    through :meth:`Medium.notify_rx_state`, until it detaches."""

    node_id: int

    @property
    def position(self) -> Position: ...

    def rx_params_throughout(self, start: float, end: float) -> Optional[LoRaParams]:
        """The modulation the radio listened with continuously during
        [start, end], or None when it was out of RX at any point of it
        (half-duplex: a transmitting radio hears nothing)."""
        ...

    def deliver(self, frame: ReceivedFrame) -> None:
        """Hand a heard frame (``crc_ok`` False after a collision) to the
        radio.  The medium builds ``frame`` once per (transmission,
        listener) pair; the listener passes that object on unchanged."""
        ...


class DropReason(enum.Enum):
    """Why a listener did not successfully receive a frame."""

    DELIVERED = "delivered"
    NOT_LISTENING = "not_listening"
    WRONG_PARAMS = "wrong_params"
    BELOW_SENSITIVITY = "below_sensitivity"
    COLLISION = "collision"
    INJECTED_LOSS = "injected_loss"


@dataclass(slots=True)
class Transmission:
    """One frame in flight."""

    tx_id: int  # unique per transmission
    sender_id: int
    position: Position
    params: LoRaParams
    payload: bytes
    start: float
    end: float

    @property
    def airtime(self) -> float:
        """Frame duration in seconds."""
        return self.end - self.start

    def overlaps(self, other: "Transmission") -> bool:
        """Temporal overlap with another transmission (open interval)."""
        return self.start < other.end and other.start < self.end

    def same_channel(self, other: "Transmission") -> bool:
        """Same RF channel (centre frequency and bandwidth)."""
        return (
            abs(self.params.frequency_mhz - other.params.frequency_mhz) < 1e-9
            and self.params.bandwidth == other.params.bandwidth
        )


#: Optional fault-injection hook: (transmission, listener_id) -> drop?
LossInjector = Callable[[Transmission, int], bool]


#: Reachable-set cache entries kept before a wholesale clear (bounds
#: memory growth under mobility, where selective invalidation retains
#: entries for positions a sender may never transmit from again).
_REACHABLE_CACHE_MAX = 8192

#: One cached reachable set: each listener whose link clears sensitivity,
#: mapped to that link's quality, in attachment order (the resolution
#: loop must deliver in the same order as the full scan).
_ReachableEntry = Dict[int, LinkQuality]

#: Margin (dB) by which an interferer's floor sits below the capture or
#: rejection threshold, so float rounding in the RSSI sums can never
#: flip ``signal - interferer >= CAPTURE_THRESHOLD_DB`` for a frame the
#: interference radius prunes.
_INTERFERENCE_GUARD_DB = 1e-3


def _tuning_key(params: LoRaParams) -> tuple:
    """Exact match on the fields :func:`_params_compatible` reads."""
    return (int(params.spreading_factor), int(params.bandwidth), params.frequency_mhz)


def _params_compatible(tx_params: LoRaParams, rx_params: LoRaParams) -> bool:
    """Whether a receiver tuned to ``rx_params`` demodulates ``tx_params``."""
    return (
        tx_params.spreading_factor == rx_params.spreading_factor
        and tx_params.bandwidth == rx_params.bandwidth
        and abs(tx_params.frequency_mhz - rx_params.frequency_mhz) < 1e-9
    )


class Medium:
    """The shared channel connecting every radio in a scenario.

    Radios attach once and then call :meth:`begin_transmission`; the medium
    resolves receptions at frame end and calls ``listener.deliver`` with
    the :class:`~repro.radio.frames.ReceivedFrame` each listener heard
    (successful demodulations and CRC-corrupted frames only; frames below
    sensitivity are silent, as on real hardware).

    The path-loss model picks the reception engine.  Over a model with a
    registered batch kernel (:func:`repro.phy.batch.supports_batch`: loss
    static in time and independent of evaluation order) the medium's work
    is bounded by the neighbourhood: reachable sets from grid candidates
    plus one batched RSSI row, aggregate accounting for every listener
    outside them, interference pruning, range-gated carrier sense and
    selective invalidation on moves.  Every other frame runs the full
    per-listener scan, which is also the reference the determinism suite
    compares the bounded engine with.
    """

    def __init__(
        self,
        sim: Simulator,
        link_budget: LinkBudget,
        *,
        loss_injector: Optional[LossInjector] = None,
    ) -> None:
        self._sim = sim
        self._link = link_budget
        #: Optional fault-injection hook (see repro.verify.faults).
        self.loss_injector = loss_injector
        self._listeners: Dict[int, MediumListener] = {}
        self._active: Dict[int, Transmission] = {}
        #: Transmissions kept past their end for overlap checks against
        #: frames that started before they ended.  Frames complete in
        #: end-time order, so appending at completion keeps the deque
        #: sorted by end time and pruning pops from the left.
        self._recent: Deque[Transmission] = deque()
        self._tx_counter = itertools.count()
        # Keyed by the reason's value string rather than the member: the
        # per-listener `stats[reason] += 1` in _complete would otherwise
        # pay a Python-level enum.__hash__ on every lookup.
        self._stats: Dict[str, int] = {reason._value_: 0 for reason in DropReason}
        self._transmissions_total = 0
        #: Whether the model bounds reception by the neighbourhood (see
        #: the class docstring); fixed for the medium's lifetime.
        self._bounded: bool = _batch.supports_batch(link_budget)
        #: Per (sender position, id(params)): the listeners whose link
        #: clears the demodulation floor.  Bounded models only; cleared on
        #: attach/detach, selectively on moves.
        self._reachable_cache: Dict[tuple, _ReachableEntry] = {}
        self._reachable_params: Dict[int, LoRaParams] = {}
        #: id(params) -> (params, conservative max communication range in
        #: metres, or None when the model cannot bound it).  The params
        #: object rides in the value so the id key stays valid for the
        #: entry's lifetime.
        self._max_range: Dict[int, Tuple[LoRaParams, Optional[float]]] = {}
        #: (id(frame params), id(interferer params)) -> (both params, the
        #: sender separation beyond which the interferer cannot corrupt
        #: the frame, or None); see :meth:`_interference_cutoff`.
        self._interference_reach: Dict[
            Tuple[int, int], Tuple[LoRaParams, LoRaParams, Optional[float]]
        ] = {}
        #: The link budget's generation the caches above were built at.
        self._link_generation = link_budget.generation
        #: Spatial hash grid over listener positions; built lazily on the
        #: first reachable-set query, then maintained incrementally on
        #: attach/detach/move.
        self._grid: Optional[SpatialGrid] = None
        #: Attachment sequence numbers: candidate lists are sorted by
        #: these so delivery order matches the full-scan loop.
        self._attach_seq: Dict[int, int] = {}
        self._attach_counter = itertools.count()
        # --- RX-state mirror of every attached listener (fed by attach /
        # notify_rx_state), read by the aggregate accounting ------------
        self._rx_since: Dict[int, Optional[float]] = {}
        self._not_in_rx: Set[int] = set()
        self._rx_entries: Deque[Tuple[float, int]] = deque()
        self._compat_counts: Dict[tuple, int] = {}
        self._compat_reps: Dict[tuple, LoRaParams] = {}
        self._listener_params: Dict[int, LoRaParams] = {}
        # Listener snapshot reused across completions; rebuilt only after
        # an attach/detach (deliver callbacks may mutate the listener map
        # mid-resolution, which must not disturb the in-progress loop).
        self._listener_snapshot: Optional[Tuple[MediumListener, ...]] = None
        #: Optional sniffer hook: called once per completed transmission
        #: with the per-listener outcomes; its one consumer is
        #: repro.trace.capture.AirCapture (tap it with
        #: repro.sim.taps.tap).  Tapping it sends every frame through the
        #: full per-listener scan, which alone has those outcomes.
        self.on_transmission: Optional[
            Callable[[Transmission, Dict[int, DropReason]], None]
        ] = None
        #: Optional *lightweight* sniffer: called once per completed
        #: transmission with the transmission only (no outcomes), whichever
        #: engine resolves it, so attaching it keeps the aggregate path.
        #: The event store records every frame through it.
        self.on_frame: Optional[Callable[[Transmission], None]] = None
        #: Optional hook fired the instant a *local* frame goes on the
        #: air (from :meth:`begin_transmission`, not from
        #: :meth:`inject_external`).  The sharded runner uses it to
        #: export boundary-crossing transmissions; a pure observer, so
        #: attaching it cannot change outcomes.
        self.on_transmit_start: Optional[Callable[[Transmission], None]] = None
        #: Interning table for externally injected params: ghost frames
        #: arrive from other processes with fresh (unpickled) LoRaParams
        #: objects, and the reachable/max-range caches key on
        #: ``id(params)`` — interning keeps repeated ghosts from one
        #: remote sender on a single params object.
        self._extern_params: Dict[LoRaParams, LoRaParams] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(
        self,
        listener: MediumListener,
        rx_since: Optional[float],
        params: Optional[LoRaParams],
    ) -> None:
        """Register a radio with its current RX window and tuning (as
        :meth:`notify_rx_state` takes them); its node_id must be unique
        on this medium."""
        node_id = listener.node_id
        if node_id in self._listeners:
            raise ValueError(f"node id {node_id} already attached")
        self._listeners[node_id] = listener
        self._attach_seq[node_id] = next(self._attach_counter)
        if self._grid is not None:
            self._grid.insert(node_id, listener.position)
        self._set_rx_state(node_id, rx_since, params)
        self._invalidate_topology()

    def detach(self, node_id: int) -> None:
        """Remove a radio (e.g. simulated node failure)."""
        if self._listeners.pop(node_id, None) is None:
            return
        self._attach_seq.pop(node_id, None)
        if self._grid is not None:
            self._grid.remove(node_id)
        self._set_rx_state(node_id, None, None)
        del self._rx_since[node_id]
        self._not_in_rx.discard(node_id)
        self._invalidate_topology()

    def notify_moved(self, node_id: int) -> None:
        """Mobility hook: a radio's position changed.

        On a bounded model the grid bucket is updated in place and only
        reachable-cache entries the move can affect are dropped: those
        whose candidate set contains the moved node, or whose sender
        position is within max communication range of the node's *new*
        position (it may now hear senders it previously could not).  The
        link budget's memo is position-keyed and size-bounded, so stale
        old-position entries are harmless and it is left alone.

        Otherwise the medium keeps no reachable sets, and the move only
        drops the link memo, so it does not fill with stale positions.
        """
        if not self._bounded:
            self._link.invalidate()
            return
        listener = self._listeners.get(node_id)
        if listener is None:
            return
        if self._grid is not None:
            self._grid.move(node_id, listener.position)
        if self._reachable_cache:
            self._invalidate_moved(node_id, listener.position)

    def _invalidate_moved(self, node_id: int, new_position: Position) -> None:
        """Drop only the reachable-cache entries a single move can affect."""
        dead: List[tuple] = []
        hypot = math.hypot
        for key, members in self._reachable_cache.items():
            if node_id in members:
                dead.append(key)
                continue
            pos, params_id = key
            # Every entry's params has a bounded range: _reachable_entry
            # builds none otherwise, and _sync_link drops both together.
            rng = self._max_range[params_id][1]
            if hypot(pos[0] - new_position[0], pos[1] - new_position[1]) <= rng:
                dead.append(key)
        for key in dead:
            del self._reachable_cache[key]

    def _sync_link(self) -> None:
        """Drop everything derived from the link budget, and note the
        generation it is now at: reachable sets with their link
        qualities, range bounds and interference cutoffs.  Runs whenever
        the budget was invalidated (edited gains, a new channel
        realisation) since the caches were built."""
        self._link_generation = self._link.generation
        self._reachable_cache.clear()
        self._reachable_params.clear()
        self._max_range.clear()
        self._interference_reach.clear()

    def _invalidate_topology(self) -> None:
        self._listener_snapshot = None
        self._reachable_cache.clear()
        self._reachable_params.clear()

    # ------------------------------------------------------------------
    # RX-state mirror (aggregate accounting)
    # ------------------------------------------------------------------
    def notify_rx_state(
        self,
        node_id: int,
        rx_since: Optional[float],
        params: Optional[LoRaParams],
    ) -> None:
        """Mirror an attached radio's RX window and tuning.

        ``rx_since`` is the simulated time the radio's current continuous
        receive window began, or None when it is not receiving (TX, sleep,
        standby, or powered off) — exactly the state its
        ``rx_params_throughout`` answers from.  A radio calls this on
        every state or tuning change; the medium ignores a detached one.
        """
        if node_id in self._listeners:
            self._set_rx_state(node_id, rx_since, params)

    def _set_rx_state(
        self,
        node_id: int,
        rx_since: Optional[float],
        params: Optional[LoRaParams],
    ) -> None:
        # Every RX/TX switch keeps the radio's params object, so only a
        # retune, an attach or a detach touches the tuning counts.
        old_params = self._listener_params.get(node_id)
        if params is not old_params:
            self._retune(node_id, old_params, params)
        if rx_since is None:
            self._rx_since[node_id] = None
            self._not_in_rx.add(node_id)
        else:
            self._rx_since[node_id] = rx_since
            self._not_in_rx.discard(node_id)
            self._rx_entries.append((rx_since, node_id))

    def _retune(
        self,
        node_id: int,
        old_params: Optional[LoRaParams],
        params: Optional[LoRaParams],
    ) -> None:
        old_key = None if old_params is None else _tuning_key(old_params)
        key = None if params is None else _tuning_key(params)
        if key != old_key:
            if old_key is not None:
                count = self._compat_counts[old_key] - 1
                if count:
                    self._compat_counts[old_key] = count
                else:
                    del self._compat_counts[old_key]
                    del self._compat_reps[old_key]
            if key is not None:
                if key in self._compat_counts:
                    self._compat_counts[key] += 1
                else:
                    self._compat_counts[key] = 1
                    self._compat_reps[key] = params  # type: ignore[assignment]
        if params is None:
            del self._listener_params[node_id]
        else:
            self._listener_params[node_id] = params

    @property
    def link_budget(self) -> LinkBudget:
        """The link-budget model receptions are evaluated against."""
        return self._link

    # ------------------------------------------------------------------
    # Transmission lifecycle
    # ------------------------------------------------------------------
    def begin_transmission(
        self,
        sender_id: int,
        position: Position,
        params: LoRaParams,
        payload: bytes,
        airtime: float,
    ) -> Transmission:
        """Start a frame on the air; reception resolves at ``now+airtime``."""
        if airtime <= 0:
            raise ValueError(f"airtime must be positive, got {airtime}")
        tx = self._launch(sender_id, position, params, payload, airtime)
        if self.on_transmit_start is not None:
            self.on_transmit_start(tx)
        return tx

    def inject_external(
        self,
        sender_id: int,
        position: Position,
        params: LoRaParams,
        payload: bytes,
        airtime: float,
    ) -> Transmission:
        """Put a frame on the air from a sender that is *not attached*.

        The sharded runner re-airs boundary-crossing transmissions from
        remote shards through this entry point: the ghost frame occupies
        the channel (CAD sees it, it interferes, listeners in range can
        receive it) exactly like a local one, but no listener delivery
        ever targets the remote sender and :attr:`on_transmit_start`
        does not fire (the coordinator already routed the frame to every
        strip its audible disk touches, so re-export would duplicate).
        """
        if airtime <= 0:
            raise ValueError(f"airtime must be positive, got {airtime}")
        params = self._extern_params.setdefault(params, params)
        return self._launch(sender_id, position, params, payload, airtime)

    def _launch(
        self,
        sender_id: int,
        position: Position,
        params: LoRaParams,
        payload: bytes,
        airtime: float,
    ) -> Transmission:
        now = self._sim.now
        tx = Transmission(
            tx_id=next(self._tx_counter),
            sender_id=sender_id,
            position=position,
            params=params,
            payload=payload,
            start=now,
            end=now + airtime,
        )
        self._active[tx.tx_id] = tx
        self._transmissions_total += 1
        self._sim.schedule(
            airtime,
            lambda: self._complete(tx),
            priority=PRIORITY_HIGH,
            # Lazy label: formatted only if a profiler/inspector reads it.
            label=lambda: f"tx#{tx.tx_id} end",
        )
        return tx

    def max_range_m(self, params: LoRaParams) -> Optional[float]:
        """Conservative maximum communication range for ``params`` in
        metres, or None when the path-loss model cannot bound it.

        Public alias of the internal bound the bounded engine uses for
        grid candidate queries; the sharded runner partitions space with
        the same radius so its strips align with what the medium can
        actually hear."""
        if self._link.generation != self._link_generation:
            self._sync_link()
        return self._max_range_for(params)

    def _complete(self, tx: Transmission) -> None:
        if self._link.generation != self._link_generation:
            self._sync_link()
        self._active.pop(tx.tx_id, None)
        self._recent.append(tx)
        self._prune_recent(tx.start)
        if self.on_frame is not None:
            self.on_frame(tx)
        if self._rx_entries:
            self._prune_rx_entries(tx.start)
        if self._bounded and self.on_transmission is None and len(self._compat_counts) == 1:
            # Aggregate path: the whole network is tuned to one (SF, BW,
            # freq), so listeners outside the reachable set are accounted
            # in O(candidates + currently-not-receiving) from the RX
            # mirror.  A sniffer needs per-listener outcomes, which only
            # the scan below produces.
            entry = self._reachable_entry(tx)
            if entry is not None:
                self._complete_aggregate(tx, entry)
                return
        listeners = self._listener_snapshot
        if listeners is None:
            listeners = self._listener_snapshot = tuple(self._listeners.values())
        # The same overlap set applies at every listener; compute it once
        # per frame instead of once per (frame, listener).
        overlapping = self._overlapping(tx)
        stats = self._stats
        outcomes: Dict[int, DropReason] = {}
        sender_id = tx.sender_id
        delivered = DropReason.DELIVERED
        collision = DropReason.COLLISION
        for listener in listeners:
            node_id = listener.node_id
            if node_id == sender_id:
                continue
            heard = self._resolve(tx, listener, None, overlapping)
            if type(heard) is DropReason:
                stats[heard._value_] += 1
                outcomes[node_id] = heard
                continue
            reason = delivered if heard.crc_ok else collision
            stats[reason._value_] += 1
            outcomes[node_id] = reason
            listener.deliver(heard)
        if self.on_transmission is not None:
            self.on_transmission(tx, outcomes)

    def _complete_aggregate(self, tx: Transmission, entry: _ReachableEntry) -> None:
        """Frame completion with aggregate accounting for culled listeners.

        Only the reachable candidates run the full resolver; everyone else
        is classified by counting, using the RX-state mirror:

        * NOT_LISTENING — listeners currently not in RX, plus listeners
          whose RX window (re)started after the frame began (``rx_since >
          tx.start``; re-tunes and TX/RX turnarounds reset the window, so
          the driver's ``rx_params_throughout`` would return None).
        * With a single network-wide (SF, BW, freq) every remaining culled
          listener is tuned compatibly, so they are all BELOW_SENSITIVITY
          (or all WRONG_PARAMS when the frame itself uses an alien params,
          e.g. a sniffer injecting on another channel).

        The histogram produced is equal to the full scan's by
        construction; the determinism suite asserts it.
        """
        listeners = self._listeners
        sender_id, tx_start = tx.sender_id, tx.start
        # Disrupted culled listeners: compute BEFORE resolving (deliver
        # callbacks may re-tune radios and perturb the RX mirror).
        disrupted = 0
        rx_since = self._rx_since
        for node_id in self._not_in_rx:
            if node_id != sender_id and node_id not in entry:
                disrupted += 1
        if self._rx_entries:
            counted: Set[int] = set()
            for since, node_id in self._rx_entries:
                if (
                    node_id != sender_id
                    and node_id not in entry
                    and node_id not in counted
                    and rx_since.get(node_id) is not None
                    and rx_since[node_id] > tx_start  # type: ignore[operator]
                ):
                    counted.add(node_id)
                    disrupted += 1
        total_others = len(listeners) - (1 if sender_id in listeners else 0)
        # Snapshot the candidate listeners before any deliver() runs.
        resolve = [
            (listeners[node_id], quality)
            for node_id, quality in entry.items()
            if node_id != sender_id and node_id in listeners
        ]
        overlapping = self._overlapping(tx)
        stats = self._stats
        delivered = DropReason.DELIVERED._value_
        collision = DropReason.COLLISION._value_
        for listener, quality in resolve:
            heard = self._resolve(tx, listener, quality, overlapping)
            if type(heard) is DropReason:
                stats[heard._value_] += 1
                continue
            stats[delivered if heard.crc_ok else collision] += 1
            listener.deliver(heard)
        culled = total_others - len(resolve)
        if culled <= 0:
            return
        below = culled - disrupted
        stats[DropReason.NOT_LISTENING._value_] += disrupted
        if below > 0:
            rep = next(iter(self._compat_reps.values()))
            if tx.params is rep or _params_compatible(tx.params, rep):
                stats[DropReason.BELOW_SENSITIVITY._value_] += below
            else:
                stats[DropReason.WRONG_PARAMS._value_] += below

    def _prune_rx_entries(self, tx_start: float) -> None:
        """Drop RX-window log entries no in-flight or resolving frame can
        observe: entries at or before every such frame's start answer
        ``rx_since > start`` with False for all of them."""
        horizon = tx_start
        for other in self._active.values():
            if other.start < horizon:
                horizon = other.start
        entries = self._rx_entries
        while entries and entries[0][0] <= horizon:
            entries.popleft()

    def _reachable_entry(self, tx: Transmission) -> Optional[_ReachableEntry]:
        """Listener ids whose link from ``tx``'s origin clears sensitivity,
        each mapped to that link's quality, in attachment order; None when
        the model cannot bound the range of ``tx.params``.

        Built from the grid candidates within :meth:`_max_range_for` and
        one batched RSSI row.  That row is bit-identical to the scalar
        ``LinkBudget.evaluate`` (same op order through numpy), and the SNR
        and threshold below are the scalar rule's own float ops, so every
        kept ``LinkQuality`` — and therefore every downstream outcome —
        matches the full scan exactly; the grid only narrows candidates.

        Cached per (sender position, params); attach/detach clears the
        cache and moves invalidate selectively.  Keying by ``id(params)``
        is safe because the params object is pinned in
        ``_reachable_params`` for the cache entry's lifetime.
        """
        key = (tx.position, id(tx.params))
        cached = self._reachable_cache.get(key)
        if cached is not None:
            return cached
        position, params = tx.position, tx.params
        rng_m = self._max_range_for(params)
        if rng_m is None:
            return None
        if len(self._reachable_cache) >= _REACHABLE_CACHE_MAX:
            self._reachable_cache.clear()
            self._reachable_params.clear()
        self._reachable_params[id(params)] = params
        # The sender itself stays in the set: the key is positional, so a
        # co-located node's transmissions may legitimately reuse this
        # entry with a different sender id.
        reachable: _ReachableEntry = {}
        self._reachable_cache[key] = reachable
        candidates = self._ensure_grid(rng_m).near(position, rng_m)
        if not candidates:
            return reachable
        # Attachment order: the scan iterates listeners in attachment
        # order, and delivery order is observable (trace ids, queue
        # order), so the cached entry must match it.
        candidates.sort(key=self._attach_seq.__getitem__)
        listeners = self._listeners
        rx_positions = [listeners[node_id].position for node_id in candidates]
        rssi = _batch.rssi_matrix(self._link, [position], rx_positions, params)[0]
        noise = noise_floor_dbm(params.bandwidth)
        floor = snr_floor_db(params.spreading_factor)
        for node_id, rssi_dbm in zip(candidates, rssi.tolist()):
            snr = rssi_dbm - noise
            if snr >= floor:
                reachable[node_id] = LinkQuality(
                    rssi_dbm=rssi_dbm, snr_db=snr, above_sensitivity=True
                )
        return reachable

    def _max_range_for(self, params: LoRaParams) -> Optional[float]:
        entry = self._max_range.get(id(params))
        if entry is None:
            rng = _batch.max_range_m(self._link, params)
            self._max_range[id(params)] = (params, rng)
            return rng
        return entry[1]

    def _ensure_grid(self, max_range_m: float) -> SpatialGrid:
        grid = self._grid
        if grid is None:
            grid = self._grid = SpatialGrid(max(max_range_m, 1.0))
            for node_id, listener in self._listeners.items():
                grid.insert(node_id, listener.position)
        return grid

    # ------------------------------------------------------------------
    # Reception resolution
    # ------------------------------------------------------------------
    def _resolve(
        self,
        tx: Transmission,
        listener: MediumListener,
        quality: Optional[LinkQuality],
        overlapping: List[Transmission],
    ) -> Union[ReceivedFrame, DropReason]:
        """The frame ``listener`` hears of ``tx``, or why it hears nothing.

        ``quality`` is the link's quality from the reachable entry
        (aggregate path), or None to evaluate it here (the scan) — after
        the listening checks, so an order-sensitive channel draws exactly
        the links its realisation is defined by.  A heard frame is the
        object the protocol sees: ``received_at`` is ``tx.end``, the
        instant the completion event fires.
        """
        rx_params = listener.rx_params_throughout(tx.start, tx.end)
        if rx_params is None:
            return DropReason.NOT_LISTENING
        if rx_params is not tx.params and not _params_compatible(tx.params, rx_params):
            return DropReason.WRONG_PARAMS

        if quality is None:
            quality = self._link.evaluate(tx.position, listener.position, tx.params)
        if not quality.above_sensitivity:
            return DropReason.BELOW_SENSITIVITY

        if self.loss_injector is not None and self.loss_injector(tx, listener.node_id):
            return DropReason.INJECTED_LOSS

        # A collision is still heard, CRC-failed: real radios raise an
        # RxDone with PayloadCrcError in this case, which the driver surfaces.
        crc_ok = not overlapping or self._survives_all_interference(
            tx, listener, quality.rssi_dbm, overlapping
        )
        return ReceivedFrame(
            payload=tx.payload,
            rssi_dbm=quality.rssi_dbm,
            snr_db=quality.snr_db,
            crc_ok=crc_ok,
            received_at=tx.end,
            params=tx.params,
            sender_id=tx.sender_id,
        )

    def _survives_all_interference(
        self,
        tx: Transmission,
        listener: MediumListener,
        signal_dbm: float,
        overlapping: List[Transmission],
    ) -> bool:
        for other in overlapping:
            if other.sender_id == listener.node_id:
                # The listener's own transmission: handled by the
                # half-duplex rx_params_throughout check; skip here.
                continue
            interferer_dbm = self._link.received_power_dbm(
                other.position, listener.position, other.params
            )
            # LoRa demodulates below the thermal noise floor, so relevance
            # is relative to the *signal*: an interferer 30+ dB weaker can
            # never break the 6 dB same-SF capture or the 16 dB inter-SF
            # rejection margins.
            if interferer_dbm < signal_dbm - 30.0:
                continue
            if not survives_interference(
                signal_dbm,
                tx.params.spreading_factor,
                interferer_dbm,
                other.params.spreading_factor,
            ):
                return False
        return True

    def _overlapping(self, tx: Transmission) -> List[Transmission]:
        """Other transmissions overlapping ``tx`` on its channel that can
        corrupt it somewhere it is heard.

        On a bounded model, a frame whose sender lies beyond
        :meth:`_interference_cutoff` of ``tx``'s sender passes
        ``survives_interference`` at every listener that can demodulate
        ``tx``, so it is left out.  Otherwise, or without a range bound,
        every overlapping frame stays: that full set is the reference the
        pruned one must match outcome for outcome.
        """
        out = []
        prune = self._bounded
        params = tx.params
        # The frames of one network usually share one params object, so
        # its cutoff is looked up once per frame, not once per pair.
        own_cutoff = self._interference_cutoff(params, params) if prune else None
        x, y = tx.position
        for other in itertools.chain(self._active.values(), self._recent):
            if other.tx_id == tx.tx_id:
                continue
            if not (other.overlaps(tx) and other.same_channel(tx)):
                continue
            if prune:
                cutoff = (
                    own_cutoff
                    if other.params is params
                    else self._interference_cutoff(params, other.params)
                )
                if cutoff is not None:
                    ox, oy = other.position
                    if math.hypot(ox - x, oy - y) > cutoff:
                        continue
            out.append(other)
        return out

    def _interference_cutoff(
        self, frame_params: LoRaParams, other_params: LoRaParams
    ) -> Optional[float]:
        """Sender separation beyond which a frame sent with
        ``other_params`` cannot corrupt one sent with ``frame_params``, or
        None when the path-loss model cannot bound it.

        The cutoff is ``R_frame + R_int``.  A listener that demodulates
        the frame lies within ``R_frame = max_range_m(frame_params)`` of
        its sender, so by the triangle inequality an interferer beyond the
        cutoff is farther than ``R_int`` from that listener.  ``R_int`` is
        where the interferer, at its own power and frequency, falls to
        the frame's sensitivity minus the capture threshold (same SF) or
        plus the inter-SF rejection margin (other SF), less a float guard:
        the frame arrives at or above sensitivity, so it survives that
        interferer whichever rule applies.  Cached per params pair, with
        both params pinned in the value so the id key stays valid.
        """
        key = (id(frame_params), id(other_params))
        entry = self._interference_reach.get(key)
        if entry is None:
            r_frame = self._max_range_for(frame_params)
            sensitivity = sensitivity_dbm(frame_params)
            if frame_params.spreading_factor == other_params.spreading_factor:
                floor = sensitivity - CAPTURE_THRESHOLD_DB
            else:
                floor = sensitivity + INTER_SF_REJECTION_DB
            r_int = _batch.range_at_floor_m(
                self._link, other_params, floor - _INTERFERENCE_GUARD_DB
            )
            cutoff = None if r_frame is None or r_int is None else r_frame + r_int
            entry = self._interference_reach[key] = (frame_params, other_params, cutoff)
        return entry[2]

    def _prune_recent(self, horizon: float) -> None:
        """Drop completed transmissions that can no longer overlap anything
        still active or resolving (ended before ``horizon``).

        ``_recent`` is sorted by end time (frames complete in end order),
        so pruning pops from the left instead of rebuilding the list.
        """
        recent = self._recent
        while recent and recent[0].end <= horizon:
            recent.popleft()

    # ------------------------------------------------------------------
    # Channel sensing
    # ------------------------------------------------------------------
    def channel_busy(
        self,
        position: Position,
        params: LoRaParams,
        *,
        exclude_sender: Optional[int] = None,
    ) -> bool:
        """CAD-style carrier sense: is any in-flight same-channel
        transmission audible (above sensitivity) at ``position``?

        ``exclude_sender`` names the sensing node itself so its own
        in-flight frame does not read as a busy channel — a real radio
        cannot CAD-detect its own transmission (it is not receiving while
        it transmits).

        On a bounded model, a frame whose sender lies beyond its
        ``max_range_m`` from ``position`` is skipped before any link
        evaluation: no link that long clears sensitivity.
        """
        if self._link.generation != self._link_generation:
            self._sync_link()
        prune = self._bounded
        x, y = position
        for tx in self._active.values():
            if tx.sender_id == exclude_sender:
                continue
            if not _params_compatible(tx.params, params):
                continue
            if prune:
                rng = self._max_range_for(tx.params)
                if rng is not None:
                    tx_x, tx_y = tx.position
                    if math.hypot(tx_x - x, tx_y - y) > rng:
                        continue
            if self._link.in_range(tx.position, position, tx.params):
                return True
        return False

    def active_count(self) -> int:
        """Number of transmissions currently in flight."""
        return len(self._active)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def transmissions_total(self) -> int:
        """Total frames ever put on the air."""
        return self._transmissions_total

    def outcome_counts(self) -> Dict[DropReason, int]:
        """Per-(transmission, listener) outcome histogram."""
        return {DropReason(value): count for value, count in self._stats.items()}
