"""The distance-vector routing table.

This is the heart of LoRaMesher: each node maintains, for every known
destination, the best next hop (``via``) and a hop-count metric, learned
entirely from neighbours' periodic ROUTING broadcasts.

Update rules (RIP-style, as the firmware implements them):

* hearing *any* packet from a neighbour refreshes/creates the direct
  route ``(neighbour, via=neighbour, metric=1)``,
* for each entry ``(addr, m)`` in a neighbour N's ROUTING packet, the
  candidate route is ``(addr, via=N, metric=m+1)``; it is adopted when it
  is new, strictly better, or when the current route already goes via N
  (follow the next hop's view, even if it got worse),
* entries not refreshed within ``route_timeout`` expire,
* metrics are capped at ``max_metric`` — candidates beyond it are ignored,
  which (together with timeouts) bounds count-to-infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.net.addresses import BROADCAST_ADDRESS, format_address
from repro.net.packets import NodeRole, RoutingEntry

#: Plain-int default role, hoisted out of the per-hello hot path.
_DEFAULT_ROLE = int(NodeRole.DEFAULT)


@dataclass(slots=True)
class RouteEntry:
    """One routing-table row."""

    address: int  # destination
    via: int  # next hop (== address for direct neighbours)
    metric: int  # hop count
    role: int  # advertised role bits of the destination
    updated_at: float  # last refresh time
    received_snr_db: Optional[float] = None  # link SNR of the teaching hello
    # Memoized wire row (address, metric, role) for snapshot(); rebuilt
    # lazily whenever metric/role drift from the cached copy.
    advertised: Optional[RoutingEntry] = field(default=None, compare=False, repr=False)

    @property
    def is_neighbour(self) -> bool:
        """Direct (one-hop) route."""
        return self.metric == 1 and self.via == self.address


#: Signature of the change hook: (kind, entry) with kind in
#: {"added", "updated", "removed"}.
ChangeHook = Callable[[str, RouteEntry], None]


class RoutingTable:
    """The per-node distance-vector table.

    ``self_address`` is never stored (a node does not route to itself);
    entries advertising it are skipped during merges.

    Every hello is merged row by row, and the table keeps no state per
    sender.  A merge that changes no route only refreshes the
    ``updated_at`` of the routes it follows and leaves :attr:`version`
    alone, which is what lets the hello service reuse its built packets
    across beacons.  :meth:`snapshot` builds the advertised rows afresh
    on each call, reusing each row's wire entry
    (``RouteEntry.advertised``) while its metric and role hold.
    """

    def __init__(
        self,
        self_address: int,
        *,
        route_timeout: float = 600.0,
        max_metric: int = 16,
        snr_tiebreak_db: Optional[float] = None,
        on_change: Optional[ChangeHook] = None,
    ) -> None:
        if route_timeout <= 0:
            raise ValueError("route_timeout must be positive")
        if not 1 <= max_metric <= 255:
            raise ValueError("max_metric must be in [1, 255]")
        if snr_tiebreak_db is not None and snr_tiebreak_db < 0:
            raise ValueError("snr_tiebreak_db must be >= 0")
        self.self_address = self_address
        self.route_timeout = route_timeout
        self.max_metric = max_metric
        #: When set, an equal-metric candidate whose first hop is at least
        #: this many dB stronger (hello SNR) replaces the current route —
        #: the link-quality-aware extension of the plain hop-count DV.
        self.snr_tiebreak_db = snr_tiebreak_db
        self._on_change = on_change
        self._routes: Dict[int, RouteEntry] = {}
        #: Monotonic counter bumped whenever a route may have been added
        #: or removed, or a route's via, metric or role changed (see
        #: :attr:`version`).
        self._version: int = 0

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def heard_from(
        self, neighbour: int, now: float, *, role: int = int(NodeRole.DEFAULT), snr_db: Optional[float] = None
    ) -> None:
        """Refresh the direct route to a neighbour we just heard.

        Called only from :meth:`process_hello`: a ROUTING packet's src is
        its transmitter, whereas a via-packet's src is its end-to-end
        origin, so overheard data frames refresh nothing.
        """
        if neighbour == self.self_address or neighbour == BROADCAST_ADDRESS:
            return
        current = self._routes.get(neighbour)
        if current is not None and current.via == neighbour and current.metric == 1:
            # Already the direct route: refresh in place (every hello from
            # a known neighbour lands here, so avoid allocating a fresh entry).
            if role and role != current.role:
                current.role = role
                self._version += 1
            current.updated_at = now
            # The equal-metric tie-break reads the latest hello SNR.
            current.received_snr_db = snr_db
            return
        entry = RouteEntry(
            address=neighbour,
            via=neighbour,
            metric=1,
            role=role if current is None else (role or current.role),
            updated_at=now,
            received_snr_db=snr_db,
        )
        self._routes[neighbour] = entry
        self._notify("added" if current is None else "updated", entry)

    def process_hello(
        self,
        src: int,
        entries: Iterable[RoutingEntry],
        now: float,
        *,
        snr_db: Optional[float] = None,
    ) -> int:
        """Merge a neighbour's ROUTING packet. Returns routes changed."""
        if src in (self.self_address, BROADCAST_ADDRESS):
            # A radio never demodulates its own frames, but a spoofed or
            # looped hello must not install routes via ourselves.
            return 0
        if not isinstance(entries, (tuple, list)):
            entries = list(entries)
        # The sender's self-advertisement carries its role bits (and
        # nothing else of value — reception is the direct route).
        sender_role = _DEFAULT_ROLE
        for row in entries:
            if row.address == src:
                sender_role = row.role
                break
        self.heard_from(src, now, role=sender_role, snr_db=snr_db)
        changed = 0
        self_addr = self.self_address
        max_metric = self.max_metric
        routes = self._routes
        tiebreak = self.snr_tiebreak_db is not None
        # Rows are read straight off the entry objects, which every
        # listener of a beacon shares with its sender (see
        # serialization.encode); ``role`` is loaded only by the branches
        # that install or follow a route, not by the common skip.
        for row in entries:
            address = row.address
            if address == self_addr or address == BROADCAST_ADDRESS:
                continue
            if address == src:
                # The neighbour's advertisement of itself carries no new
                # information — hearing the hello *is* the direct route,
                # already installed at metric 1 above.  Merging it would
                # let a malformed self-advertisement (metric > 0) degrade
                # that direct route via the follow-your-via rule.
                continue
            metric = row.metric + 1
            if metric > max_metric:
                continue
            current = routes.get(address)
            if current is None:
                entry = RouteEntry(address=address, via=src, metric=metric, role=row.role, updated_at=now)
                routes[address] = entry
                self._notify("added", entry)
                changed += 1
            elif metric < current.metric:
                entry = RouteEntry(address=address, via=src, metric=metric, role=row.role, updated_at=now)
                routes[address] = entry
                self._notify("updated", entry)
                changed += 1
            elif current.via == src:
                # Follow the next hop's current view (metric may have
                # worsened), and refresh the timestamp either way.
                role = row.role
                meaningful = current.metric != metric or current.role != role
                current.metric = metric
                current.role = role
                current.updated_at = now
                if meaningful:
                    self._notify("updated", current)
                    changed += 1
            elif tiebreak and metric == current.metric and self._stronger_first_hop(src, current.via):
                entry = RouteEntry(address=address, via=src, metric=metric, role=row.role, updated_at=now)
                routes[address] = entry
                self._notify("updated", entry)
                changed += 1
        return changed

    def set_route(
        self,
        address: int,
        via: int,
        metric: int,
        role: int = _DEFAULT_ROLE,
        now: float = 0.0,
    ) -> None:
        """Install or overwrite a route unconditionally.

        The oracle baselines use this to force their precomputed
        shortest paths into the table; notifies only on actual change.
        """
        current = self._routes.get(address)
        if current is None:
            entry = RouteEntry(address=address, via=via, metric=metric, role=role, updated_at=now)
            self._routes[address] = entry
            self._notify("added", entry)
            return
        changed = current.via != via or current.metric != metric or current.role != role
        current.via = via
        current.metric = metric
        current.role = role
        current.updated_at = now
        if changed:
            self._notify("updated", current)

    def _stronger_first_hop(self, candidate_via: int, current_via: int) -> bool:
        """Link-quality tie-break: is the candidate's first hop at least
        ``snr_tiebreak_db`` stronger than the current one's?

        Uses the hello SNR recorded on the neighbour entries; missing SNR
        (route never refreshed by a hello, or the feature disabled) means
        no switch — hysteresis prevents flapping between similar links.
        """
        if self.snr_tiebreak_db is None:
            return False
        candidate = self._routes.get(candidate_via)
        current = self._routes.get(current_via)
        if candidate is None or candidate.received_snr_db is None:
            return False
        if current is None or current.received_snr_db is None:
            return True  # any measured link beats a vanished/unmeasured one
        return candidate.received_snr_db - current.received_snr_db >= self.snr_tiebreak_db

    # ------------------------------------------------------------------
    # Ageing
    # ------------------------------------------------------------------
    def purge(self, now: float) -> List[RouteEntry]:
        """Drop entries not refreshed within ``route_timeout``.

        Returns the removed entries (useful for trace and tests).
        """
        expired = [
            entry
            for entry in self._routes.values()
            if now - entry.updated_at > self.route_timeout
        ]
        for entry in expired:
            del self._routes[entry.address]
            self._notify("removed", entry)
        return expired

    def remove_via(self, neighbour: int) -> List[RouteEntry]:
        """Immediately drop every route through ``neighbour`` (used when a
        transmission to it repeatedly fails)."""
        dropped = [e for e in self._routes.values() if e.via == neighbour]
        for entry in dropped:
            del self._routes[entry.address]
            self._notify("removed", entry)
        return dropped

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def next_hop(self, destination: int) -> Optional[int]:
        """Next hop towards ``destination``, or None when unreachable."""
        entry = self._routes.get(destination)
        return entry.via if entry is not None else None

    def get(self, destination: int) -> Optional[RouteEntry]:
        """The full entry for ``destination``, or None."""
        return self._routes.get(destination)

    def has_route(self, destination: int) -> bool:
        """Whether ``destination`` is currently reachable."""
        return destination in self._routes

    def metric(self, destination: int) -> Optional[int]:
        """Hop count towards ``destination``, or None."""
        entry = self._routes.get(destination)
        return entry.metric if entry is not None else None

    @property
    def size(self) -> int:
        """Number of known destinations."""
        return len(self._routes)

    @property
    def version(self) -> int:
        """Counter that advances whenever a route is added or removed, or
        a route's via, metric or role changes.  Timestamp and hello-SNR
        refreshes do not bump it, so a stable table keeps a stable
        version.

        Two consumers rely on it: the hello service reuses its built
        ROUTING packets while it holds, and
        :meth:`~repro.verify.invariants.InvariantChecker.audit` skips
        re-checking a table set it found clean while it holds.  Code that
        writes ``_routes`` or a route's fields directly must move it."""
        return self._version

    def destinations(self) -> List[int]:
        """Known destination addresses, sorted."""
        return sorted(self._routes)

    def neighbours(self) -> List[int]:
        """Directly reachable (metric-1) destinations, sorted."""
        return sorted(e.address for e in self._routes.values() if e.is_neighbour)

    def __iter__(self) -> Iterator[RouteEntry]:
        for address in sorted(self._routes):
            yield self._routes[address]

    def __contains__(self, destination: int) -> bool:
        return destination in self._routes

    # ------------------------------------------------------------------
    # Advertising
    # ------------------------------------------------------------------
    def snapshot(self, *, self_role: int = int(NodeRole.DEFAULT)) -> List[RoutingEntry]:
        """The entries this node advertises in its ROUTING packets.

        The node's own address is advertised at metric 0 so receivers
        compute metric 1 for the direct route — matching the firmware,
        where the hello's source is itself the metric-0 row.
        """
        rows = [RoutingEntry(address=self.self_address, metric=0, role=self_role)]
        # Table rows were validated on the way in; skip re-validation.
        # Each row's wire entry is memoized on the RouteEntry and reused
        # until its metric/role drift — across beacons, most rows are
        # stable while the table as a whole still churns somewhere.
        routes = self._routes
        trusted = RoutingEntry.trusted
        append = rows.append
        for address in sorted(routes):
            e = routes[address]
            adv = e.advertised
            if adv is None or adv.metric != e.metric or adv.role != e.role:
                adv = trusted(e.address, e.metric, e.role)
                e.advertised = adv
            append(adv)
        return rows

    def format(self) -> str:
        """Multi-line rendering like the demo's serial-console dump."""
        lines = [f"Routing table of {format_address(self.self_address)} ({self.size} routes)"]
        for entry in self:
            lines.append(
                f"  dst={format_address(entry.address)} via={format_address(entry.via)} "
                f"metric={entry.metric} role={entry.role}"
            )
        return "\n".join(lines)

    def _notify(self, kind: str, entry: RouteEntry) -> None:
        self._version += 1
        if self._on_change is not None:
            self._on_change(kind, entry)


def make_routing_table(
    self_address: int,
    *,
    route_timeout: float = 600.0,
    max_metric: int = 16,
    snr_tiebreak_db: Optional[float] = None,
    on_change: Optional[ChangeHook] = None,
    impl: str = "scalar",
) -> RoutingTable:
    """Build a node's routing table (the mesher's single constructor)."""
    # ``impl`` exists only because perfbench/tracer.py passes it.
    if impl != "scalar":
        raise ValueError(f"routing impl must be 'scalar', got {impl!r}")
    return RoutingTable(
        self_address,
        route_timeout=route_timeout,
        max_metric=max_metric,
        snr_tiebreak_db=snr_tiebreak_db,
        on_change=on_change,
    )
