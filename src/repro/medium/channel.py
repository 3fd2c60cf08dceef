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
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Protocol, Set, Tuple, Union

from repro.phy import batch as _batch
from repro.phy.link import LinkBudget, snr_floor_db, noise_floor_dbm, survives_interference
from repro.phy.modulation import LoRaParams
from repro.phy.pathloss import Position
from repro.medium.spatial import SpatialGrid
from repro.radio.frames import ReceivedFrame
from repro.sim.kernel import PRIORITY_HIGH, Simulator

logger = logging.getLogger(__name__)


class MediumListener(Protocol):
    """What the medium needs to know about an attached radio."""

    node_id: int

    @property
    def position(self) -> Position: ...

    @property
    def rx_params(self) -> Optional[LoRaParams]:
        """Modulation the radio is currently listening with, or None."""
        ...

    def listening_throughout(self, start: float, end: float) -> bool:
        """True if the radio was continuously in RX during [start, end]."""
        ...

    def rx_params_throughout(self, start: float, end: float) -> Optional[LoRaParams]:
        """Combined hot-path accessor: the modulation the radio listened
        with continuously during [start, end], or None.  Must equal
        ``rx_params if listening_throughout(start, end) else None``; the
        medium classifies every listener of every frame, so it asks with
        one call instead of two."""
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

#: One cached reachable set: listener ids in attachment order (the
#: resolution loop must deliver in the same order as the full scan) plus
#: a frozenset for O(1) membership tests.
_ReachableEntry = Tuple[Tuple[int, ...], FrozenSet[int]]


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
    """

    def __init__(
        self,
        sim: Simulator,
        link_budget: LinkBudget,
        *,
        loss_injector: Optional[LossInjector] = None,
        reachability_cache: Optional[bool] = None,
        use_batch_phy: Optional[bool] = None,
    ) -> None:
        self._sim = sim
        self._link = link_budget
        self._loss_injector = loss_injector
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
        #: Reception fast path: per (sender position, params) set of
        #: listener ids whose link clears the demodulation floor, so
        #: frame resolution runs full PHY math only on plausible
        #: receivers.  Invalidated on attach/detach/movement;
        #: ``None`` when the pathloss model rules the cache out
        #: (time-varying loss or order-sensitive shadowing draws).
        if reachability_cache is None:
            reachability_cache = link_budget.supports_reachability_cache
        self.use_reachability: bool = reachability_cache
        #: Vectorized batch PHY + spatial-grid engine: reachable sets are
        #: built from an O(cell-neighborhood) candidate lookup plus one
        #: batched margin row instead of an O(N) scalar scan, and frame
        #: completion accounts for culled listeners in aggregate instead
        #: of replaying per-listener checks.  Outcome-invisible (the
        #: determinism suite asserts byte-identical traces either way);
        #: auto-disabled for time-varying / order-sensitive channels,
        #: exactly like the reachability flag.
        if use_batch_phy is None:
            use_batch_phy = reachability_cache and _batch.supports_batch(link_budget)
        self.use_batch_phy: bool = use_batch_phy
        self._reachable_cache: Dict[tuple, _ReachableEntry] = {}
        self._reachable_params: Dict[int, LoRaParams] = {}
        #: id(params) -> (params, conservative max communication range in
        #: metres, or None when the model cannot bound it).  The params
        #: object rides in the value so the id key stays valid for the
        #: entry's lifetime.
        self._max_range: Dict[int, Tuple[LoRaParams, Optional[float]]] = {}
        #: Spatial hash grid over listener positions; built lazily on the
        #: first batch reachable-set query, then maintained incrementally
        #: on attach/detach/move.
        self._grid: Optional[SpatialGrid] = None
        #: Attachment sequence numbers: batch candidate lists are sorted
        #: by these so delivery order matches the full-scan loop.
        self._attach_seq: Dict[int, int] = {}
        self._attach_counter = itertools.count()
        # --- aggregate RX-state mirror (fed by register_state_reporter /
        # notify_rx_state from state-reporting radios) -----------------
        self._reporting: Set[int] = set()
        self._rx_since: Dict[int, Optional[float]] = {}
        self._not_in_rx: Set[int] = set()
        self._rx_entries: Deque[Tuple[float, int]] = deque()
        self._compat_counts: Dict[tuple, int] = {}
        self._compat_reps: Dict[tuple, LoRaParams] = {}
        self._listener_key: Dict[int, tuple] = {}
        # Listener snapshot reused across completions; rebuilt only after
        # an attach/detach (deliver callbacks may mutate the listener map
        # mid-resolution, which must not disturb the in-progress loop).
        self._listener_snapshot: Optional[Tuple[MediumListener, ...]] = None
        #: Optional sniffer hook: called once per completed transmission
        #: with the per-listener outcomes; its one consumer is
        #: repro.trace.capture.AirCapture (tap it with
        #: repro.sim.taps.tap).  Tapping it disables the aggregate
        #: accounting fast path — per-listener outcomes require the
        #: full resolution loop.
        self.on_transmission: Optional[
            Callable[[Transmission, Dict[int, DropReason]], None]
        ] = None
        #: Optional *lightweight* sniffer: called once per completed
        #: transmission with the transmission only (no outcomes), from
        #: both the aggregate and the per-listener completion paths, so
        #: attaching it keeps the fast path.  The event store records
        #: every frame through it.
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
    # Fault injection
    # ------------------------------------------------------------------
    @property
    def loss_injector(self) -> Optional[LossInjector]:
        """The installed loss injector, or None (see repro.verify.faults)."""
        return self._loss_injector

    @loss_injector.setter
    def loss_injector(self, injector: Optional[LossInjector]) -> None:
        self._loss_injector = injector

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, listener: MediumListener) -> None:
        """Register a radio; its node_id must be unique on this medium."""
        if listener.node_id in self._listeners:
            raise ValueError(f"node id {listener.node_id} already attached")
        self._listeners[listener.node_id] = listener
        self._attach_seq[listener.node_id] = next(self._attach_counter)
        if self._grid is not None:
            self._grid.insert(listener.node_id, listener.position)
        self._invalidate_topology()

    def detach(self, node_id: int) -> None:
        """Remove a radio (e.g. simulated node failure)."""
        self._listeners.pop(node_id, None)
        self._attach_seq.pop(node_id, None)
        if self._grid is not None:
            self._grid.remove(node_id)
        if node_id in self._reporting:
            self._set_rx_state(node_id, None, None)
            self._reporting.discard(node_id)
            self._rx_since.pop(node_id, None)
            self._not_in_rx.discard(node_id)
        self._invalidate_topology()

    def notify_moved(self, node_id: int) -> None:
        """Mobility hook: a radio's position changed.

        With the spatial index on, the grid bucket is updated in place and
        only reachable-cache entries the move can affect are dropped: those
        whose candidate set contains the moved node, or whose sender
        position is within max communication range of the node's *new*
        position (it may now hear senders it previously could not).  The
        link budget's memo is position-keyed and size-bounded, so stale
        old-position entries are harmless and it is left alone.

        Without the index (scalar path), falls back to the wholesale
        clear-everything behaviour.
        """
        listener = self._listeners.get(node_id)
        if self._grid is not None and listener is not None:
            self._grid.move(node_id, listener.position)
        if self.use_batch_phy and listener is not None:
            if self._reachable_cache:
                self._invalidate_moved(node_id, listener.position)
            return
        self._reachable_cache.clear()
        self._reachable_params.clear()
        self._max_range.clear()
        self._link.invalidate()

    def _invalidate_moved(self, node_id: int, new_position: Position) -> None:
        """Drop only the reachable-cache entries a single move can affect."""
        dead: List[tuple] = []
        hypot = math.hypot
        for key, (ordered, members) in self._reachable_cache.items():
            if node_id in members:
                dead.append(key)
                continue
            pos, params_id = key
            range_entry = self._max_range.get(params_id)
            rng = range_entry[1] if range_entry is not None else None
            if rng is None:
                # Unbounded (or unknown) range: conservatively drop.
                dead.append(key)
                continue
            if hypot(pos[0] - new_position[0], pos[1] - new_position[1]) <= rng:
                dead.append(key)
        for key in dead:
            del self._reachable_cache[key]

    def _invalidate_topology(self) -> None:
        self._listener_snapshot = None
        self._reachable_cache.clear()
        self._reachable_params.clear()

    # ------------------------------------------------------------------
    # RX-state mirror (aggregate accounting fast path)
    # ------------------------------------------------------------------
    def register_state_reporter(
        self,
        node_id: int,
        rx_since: Optional[float],
        params: Optional[LoRaParams],
    ) -> None:
        """Opt a listener into RX-state mirroring.

        A reporting radio calls :meth:`notify_rx_state` on every state or
        tuning change; once *every* attached listener reports (and the
        whole network shares one (SF, BW, freq)), frame completion can
        account for culled listeners in aggregate instead of replaying
        per-listener checks.  Radios that never report simply keep the
        replay path — the mirror is purely an optimisation.
        """
        self._reporting.add(node_id)
        self._rx_since[node_id] = None
        self._not_in_rx.add(node_id)
        self._set_rx_state(node_id, rx_since, params)

    def notify_rx_state(
        self,
        node_id: int,
        rx_since: Optional[float],
        params: Optional[LoRaParams],
    ) -> None:
        """Mirror a reporting radio's RX window and tuning.

        ``rx_since`` is the simulated time the radio's current continuous
        receive window began, or None when it is not receiving (TX, sleep,
        standby, or powered off) — exactly the state its
        ``rx_params_throughout`` answers from.  No-op for radios that
        never registered.
        """
        if node_id not in self._reporting:
            return
        self._set_rx_state(node_id, rx_since, params)

    def _set_rx_state(
        self,
        node_id: int,
        rx_since: Optional[float],
        params: Optional[LoRaParams],
    ) -> None:
        # Tuning key: exact match on the fields _params_compatible reads.
        key = (
            None
            if params is None
            else (int(params.spreading_factor), int(params.bandwidth), params.frequency_mhz)
        )
        old_key = self._listener_key.get(node_id)
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
                self._listener_key[node_id] = key
            else:
                self._listener_key.pop(node_id, None)
        if rx_since is None:
            self._rx_since[node_id] = None
            self._not_in_rx.add(node_id)
        else:
            self._rx_since[node_id] = rx_since
            self._not_in_rx.discard(node_id)
            self._rx_entries.append((rx_since, node_id))

    @property
    def listener_ids(self) -> Tuple[int, ...]:
        """Node ids of all attached radios, in attachment order."""
        return tuple(self._listeners)

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

        Public alias of the internal bound the batch engine uses for
        grid candidate queries; the sharded runner partitions space with
        the same radius so its strips align with what the medium can
        actually hear."""
        return self._max_range_for(params)

    def _complete(self, tx: Transmission) -> None:
        self._active.pop(tx.tx_id, None)
        self._recent.append(tx)
        self._prune_recent(tx.start)
        if self.on_frame is not None:
            self.on_frame(tx)
        if self._rx_entries:
            self._prune_rx_entries(tx.start)
        entry = self._reachable_entry(tx) if self.use_reachability else None
        if (
            entry is not None
            and self.use_batch_phy
            and self.on_transmission is None
            and len(self._reporting) == len(self._listeners)
            and len(self._compat_counts) == 1
        ):
            # Aggregate fast path: every listener mirrors its RX state into
            # the medium and the whole network is tuned to one (SF, BW,
            # freq), so culled listeners are accounted in O(candidates +
            # currently-not-receiving) instead of an O(N) replay loop.
            # Requires no sniffer (which needs per-listener outcomes).
            self._complete_aggregate(tx, entry)
            return
        listeners = self._listener_snapshot
        if listeners is None:
            listeners = self._listener_snapshot = tuple(self._listeners.values())
        reachable = entry[1] if entry is not None else None
        # The same overlap set applies at every listener; compute it once
        # per frame instead of once per (frame, listener).
        overlapping = self._overlapping(tx)
        stats = self._stats
        outcomes: Dict[int, DropReason] = {}
        sender_id, tx_params, tx_start, tx_end = tx.sender_id, tx.params, tx.start, tx.end
        not_listening = DropReason.NOT_LISTENING
        wrong_params = DropReason.WRONG_PARAMS
        below_sensitivity = DropReason.BELOW_SENSITIVITY
        delivered = DropReason.DELIVERED
        collision = DropReason.COLLISION
        for listener in listeners:
            node_id = listener.node_id
            if node_id == sender_id:
                continue
            if reachable is not None and node_id not in reachable:
                # Culled listener: the link budget says the frame cannot
                # clear sensitivity here, so skip the PHY math entirely —
                # but keep the outcome histogram byte-identical to the
                # slow path by replaying its (cheap) early checks in the
                # same order.  (The identity test is a fast path for the
                # common whole-network-shares-one-params-object case.)
                rx_params = listener.rx_params_throughout(tx_start, tx_end)
                if rx_params is None:
                    reason = not_listening
                elif rx_params is not tx_params and not _params_compatible(tx_params, rx_params):
                    reason = wrong_params
                else:
                    reason = below_sensitivity
                stats[reason._value_] += 1
                outcomes[node_id] = reason
                continue
            heard = self._resolve(tx, listener, overlapping)
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

        The histogram produced is equal to the replay loop's by
        construction; the determinism suite asserts it.
        """
        ordered, members = entry
        listeners = self._listeners
        sender_id, tx_start = tx.sender_id, tx.start
        # Disrupted culled listeners: compute BEFORE resolving (deliver
        # callbacks may re-tune radios and perturb the RX mirror).
        disrupted = 0
        rx_since = self._rx_since
        for node_id in self._not_in_rx:
            if node_id != sender_id and node_id not in members:
                disrupted += 1
        if self._rx_entries:
            counted: Set[int] = set()
            for since, node_id in self._rx_entries:
                if (
                    node_id != sender_id
                    and node_id not in members
                    and node_id not in counted
                    and rx_since.get(node_id) is not None
                    and rx_since[node_id] > tx_start  # type: ignore[operator]
                ):
                    counted.add(node_id)
                    disrupted += 1
        total_others = len(listeners) - (1 if sender_id in listeners else 0)
        # Snapshot the candidate listeners before any deliver() runs.
        resolve = [
            (node_id, listeners[node_id])
            for node_id in ordered
            if node_id != sender_id and node_id in listeners
        ]
        overlapping = self._overlapping(tx)
        # One batch matrix replaces len(overlapping) x len(resolve)
        # scalar interferer-power evaluations.  In a small network the
        # link-budget memo holds every (tx, rx) pair, making the scalar
        # lookups cheaper than the numpy dispatch; in a large one the
        # interferer x listener pair space overflows the memo and the
        # matrix wins even at small widths.
        rows = (
            self._interference_rows(overlapping, resolve)
            if len(self._listeners) > 64 and len(overlapping) * len(resolve) >= 8
            else None
        )
        stats = self._stats
        delivered = DropReason.DELIVERED._value_
        collision = DropReason.COLLISION._value_
        for node_id, listener in resolve:
            row = rows.get(node_id) if rows is not None else None
            heard = self._resolve(tx, listener, overlapping, row)
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

    def _reachable_entry(self, tx: Transmission) -> _ReachableEntry:
        """Listener ids whose link from ``tx``'s origin clears sensitivity,
        as (attachment-ordered tuple, frozenset).

        Cached per (sender position, params); attach/detach clears the
        cache and moves invalidate selectively (batch path) or wholesale
        (scalar path).  Keying by ``id(params)`` is safe because the
        params object is pinned in ``_reachable_params`` for the cache
        entry's lifetime.
        """
        key = (tx.position, id(tx.params))
        cached = self._reachable_cache.get(key)
        if cached is None:
            if len(self._reachable_cache) >= _REACHABLE_CACHE_MAX:
                self._reachable_cache.clear()
                self._reachable_params.clear()
            self._reachable_params[id(tx.params)] = tx.params
            position, params = tx.position, tx.params
            if self.use_batch_phy:
                cached = self._reachable_batch(position, params)
            if cached is None:
                link = self._link
                # The sender itself stays in the set: the key is
                # positional, so a co-located node's transmissions may
                # legitimately reuse this entry with a different sender id.
                ordered = tuple(
                    node_id
                    for node_id, listener in self._listeners.items()
                    if link.in_range(position, listener.position, params)
                )
                cached = (ordered, frozenset(ordered))
            self._reachable_cache[key] = cached
        return cached

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

    def _reachable_batch(
        self, position: Position, params: LoRaParams
    ) -> Optional[_ReachableEntry]:
        """Grid-candidate + batched-margin reachable set, or None when the
        model cannot bound its range (caller falls back to the full scan).

        The batch margin test is bit-identical to the scalar
        ``LinkBudget.in_range`` (same op order through numpy), so the
        resulting set — and therefore every downstream outcome — matches
        the scalar path exactly; the grid only narrows *candidates*.
        """
        rng_m = self._max_range_for(params)
        if rng_m is None:
            return None
        grid = self._ensure_grid(rng_m)
        candidates = grid.near(position, rng_m)
        if not candidates:
            return ((), frozenset())
        # Attachment order: the resolution loop iterates listeners in
        # attachment order, and delivery order is observable (trace ids,
        # queue order), so the cached tuple must match the full scan.
        candidates.sort(key=self._attach_seq.__getitem__)
        listeners = self._listeners
        rx_positions = [listeners[node_id].position for node_id in candidates]
        above = _batch.above_sensitivity_matrix(
            self._link, [position], rx_positions, params
        )[0]
        ordered = tuple(
            node_id for node_id, ok in zip(candidates, above.tolist()) if ok
        )
        return (ordered, frozenset(ordered))

    # ------------------------------------------------------------------
    # Reception resolution
    # ------------------------------------------------------------------
    def _interference_rows(
        self,
        overlapping: List[Transmission],
        resolve: List[Tuple[int, MediumListener]],
    ) -> Dict[int, List[float]]:
        """Interferer RSSI per (candidate listener, overlapping frame).

        One vectorized call per completed transmission computes what the
        scalar path recomputes per (listener, interferer) pair.  The batch
        kernels share numpy ops and association order with the scalar
        ``received_power_dbm``, so every row value is bit-identical —
        :meth:`_survives_all_interference` can use them interchangeably.

        Returns ``{node_id: [rssi_dbm per overlapping index]}``.
        """
        rx_positions = [listener.position for _, listener in resolve]
        # Interferers usually share one LoRaParams object; group by
        # identity so heterogeneous networks still batch per group.
        groups: Dict[int, Tuple[LoRaParams, List[int]]] = {}
        for idx, other in enumerate(overlapping):
            group = groups.get(id(other.params))
            if group is None:
                groups[id(other.params)] = (other.params, [idx])
            else:
                group[1].append(idx)
        if len(groups) == 1:
            # Homogeneous interferers (the overwhelmingly common case):
            # one matrix, columns already in overlapping order.
            (params, _idxs), = groups.values()
            rssi = _batch.rssi_matrix(
                self._link,
                [other.position for other in overlapping],
                rx_positions,
                params,
            )
            return {
                node_id: col
                for (node_id, _), col in zip(resolve, rssi.T.tolist())
            }
        width = len(overlapping)
        rows: Dict[int, List[float]] = {
            node_id: [0.0] * width for node_id, _ in resolve
        }
        row_list = [rows[node_id] for node_id, _ in resolve]
        for params, idxs in groups.values():
            tx_positions = [overlapping[i].position for i in idxs]
            rssi = _batch.rssi_matrix(self._link, tx_positions, rx_positions, params)
            cols = rssi.T.tolist()  # one entry list per candidate
            for row, col in zip(row_list, cols):
                for k, i in enumerate(idxs):
                    row[i] = col[k]
        return rows

    def _resolve(
        self,
        tx: Transmission,
        listener: MediumListener,
        overlapping: List[Transmission],
        rssi_row: Optional[List[float]] = None,
    ) -> Union[ReceivedFrame, DropReason]:
        """The frame ``listener`` hears of ``tx``, or why it hears nothing.

        A heard frame is the object the protocol sees: ``received_at`` is
        ``tx.end``, the instant the completion event fires.
        """
        rx_params = listener.rx_params_throughout(tx.start, tx.end)
        if rx_params is None:
            return DropReason.NOT_LISTENING
        if rx_params is not tx.params and not _params_compatible(tx.params, rx_params):
            return DropReason.WRONG_PARAMS

        quality = self._link.evaluate(tx.position, listener.position, tx.params)
        if not quality.above_sensitivity:
            return DropReason.BELOW_SENSITIVITY

        if self._loss_injector is not None and self._loss_injector(tx, listener.node_id):
            return DropReason.INJECTED_LOSS

        # A collision is still heard, CRC-failed: real radios raise an
        # RxDone with PayloadCrcError in this case, which the driver surfaces.
        crc_ok = not overlapping or self._survives_all_interference(
            tx, listener, quality.rssi_dbm, overlapping, rssi_row
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
        rssi_row: Optional[List[float]] = None,
    ) -> bool:
        for idx, other in enumerate(overlapping):
            if other.sender_id == listener.node_id:
                # The listener's own transmission: handled by the
                # half-duplex listening_throughout check; skip here.
                continue
            if rssi_row is not None:
                # Prefetched batch row (see _interference_rows): the same
                # value the scalar call below would produce.
                interferer_dbm = rssi_row[idx]
            else:
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
        """All other transmissions overlapping ``tx`` on its channel."""
        out = []
        for other in itertools.chain(self._active.values(), self._recent):
            if other.tx_id == tx.tx_id:
                continue
            if other.overlaps(tx) and other.same_channel(tx):
                out.append(other)
        return out

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
        """
        for tx in self._active.values():
            if tx.sender_id == exclude_sender:
                continue
            if not _params_compatible(tx.params, params):
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
