"""The hello merge against its row-by-row reference.

``RoutingTable.process_hello`` is the hello plane's hot loop, so it is
the first place a speedup reorders (say, looking each row's destination
up before the skip rules: self, broadcast, sender, over ``max_metric``).
:func:`reference_process_hello` is the row-by-row loop kept verbatim; on
any table and any hello, the merge and the reference must leave the same
routes, version, return value and change notifications.
"""

from hypothesis import given, settings, strategies as st

from repro.net.addresses import BROADCAST_ADDRESS
from repro.net.packets import NodeRole, RoutingEntry
from repro.net.routing_table import RouteEntry, RoutingTable

_DEFAULT_ROLE = int(NodeRole.DEFAULT)


def reference_process_hello(self, src, entries, now, *, snr_db=None):
    """``RoutingTable.process_hello`` with the skip rules first, row by row."""
    if src in (self.self_address, BROADCAST_ADDRESS):
        return 0
    if not isinstance(entries, (tuple, list)):
        entries = list(entries)
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
    for row in entries:
        address = row.address
        if address == self_addr or address == BROADCAST_ADDRESS:
            continue
        if address == src:
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


ME = 0x0001
#: Self, a few neighbours and destinations, address 0 and broadcast:
#: small enough that rows hit planted routes, the sender and each other.
addresses = st.sampled_from([ME, 0x0002, 0x0003, 0x0004, 0x0005, 0x0006, 0x0000, BROADCAST_ADDRESS])
metrics = st.integers(min_value=0, max_value=255)
roles = st.sampled_from([0, 1, 2])
snrs = st.sampled_from([None, -12.0, -5.0, 0.0, 4.0])
times = st.sampled_from([0.0, 10.0, 20.0])

#: Table set-up: routes planted by ``set_route`` (to self, to broadcast,
#: over ``max_metric``: it validates nothing) and direct routes refreshed
#: by ``heard_from`` with a hello SNR.
set_up = st.lists(
    st.one_of(
        st.tuples(st.just("set"), addresses, addresses, metrics, roles, times),
        st.tuples(st.just("heard"), addresses, roles, snrs, times),
    ),
    max_size=12,
)
hellos = st.lists(
    st.tuples(
        addresses,
        st.lists(st.tuples(addresses, metrics, roles), max_size=10),
        times,
        snrs,
    ),
    min_size=1,
    max_size=6,
)


def _build(max_metric, tiebreak_db, steps):
    notes = []
    table = RoutingTable(
        ME,
        max_metric=max_metric,
        snr_tiebreak_db=tiebreak_db,
        on_change=lambda kind, e: notes.append((kind, e.address, e.via, e.metric, e.role)),
    )
    for step in steps:
        if step[0] == "set":
            _, address, via, metric, role, now = step
            table.set_route(address, via, metric, role, now)
        else:
            _, neighbour, role, snr_db, now = step
            table.heard_from(neighbour, now, role=role, snr_db=snr_db)
    return table, notes


def _rows(table):
    return [
        (
            key,
            e.address,
            e.via,
            e.metric,
            e.role,
            e.updated_at,
            e.received_snr_db,
            e.advertised,
        )
        for key, e in table._routes.items()
    ]


class TestMergeMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(
        max_metric=st.sampled_from([1, 2, 4, 16, 255]),
        tiebreak_db=st.sampled_from([None, 0.0, 3.0]),
        steps=set_up,
        hellos=hellos,
    )
    def test_merge_equals_the_row_by_row_loop(self, max_metric, tiebreak_db, steps, hellos):
        table, notes = _build(max_metric, tiebreak_db, steps)
        reference, reference_notes = _build(max_metric, tiebreak_db, steps)
        for src, rows, now, snr_db in hellos:
            entries = tuple(RoutingEntry.trusted(*row) for row in rows)
            got = table.process_hello(src, entries, now, snr_db=snr_db)
            want = reference_process_hello(reference, src, entries, now, snr_db=snr_db)
            assert got == want
            assert _rows(table) == _rows(reference)
            assert table.version == reference.version
            assert notes == reference_notes
