"""The data plane: deciding what to do with each received via-packet.

Every non-ROUTING packet carries a ``via`` field naming the next hop.
When a node receives one it classifies the frame:

* ``DELIVER``  — the node is the final destination (or it's a broadcast),
* ``FORWARD``  — the node is the named via but not the destination: look
  up the next hop towards ``dst``, rewrite ``via``, and re-enqueue,
* ``OVERHEAR`` — the frame is for someone else; the node only counts it
  (neighbour routes are refreshed by hellos alone: a via-packet's src is
  its origin, not its transmitter),
* ``NO_ROUTE`` — the node should forward but has no route; the frame is
  dropped (and counted — the paper's DV protocol has no route discovery
  on demand, routes exist only via hellos).

The classification is pure (no side effects), so it is directly
property-testable; the mesher applies the resulting action.  Decisions
are frozen, so the action-only ones (DELIVER, OVERHEAR, NO_ROUTE) are
shared module-level objects; only FORWARD builds a fresh decision.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Optional, Union

from repro.net.addresses import BROADCAST_ADDRESS
from repro.net.packets import (
    AckPacket,
    DataPacket,
    LostPacket,
    NeedAckPacket,
    SyncPacket,
    ViaPacket,
    XLDataPacket,
)
from repro.net.routing_table import RoutingTable


class ForwardAction(enum.Enum):
    """What the data plane decided for a received packet."""

    DELIVER = "deliver"
    FORWARD = "forward"
    OVERHEAR = "overhear"
    NO_ROUTE = "no_route"


@dataclass(frozen=True)
class ForwardDecision:
    """The action plus, for FORWARD, the rewritten packet to enqueue."""

    action: ForwardAction
    outgoing: Optional[ViaPacket] = None
    next_hop: Optional[int] = None
    #: Diagnostic: the chosen next hop is the node the frame just came
    #: from — a transient two-node ping-pong that only occurs while
    #: neighbouring tables disagree during convergence.  The frame is
    #: still forwarded (matching the firmware, which has no previous-hop
    #: knowledge); the flag feeds a dedicated metric and the invariant
    #: checker so persistent ping-pong is caught as a routing loop.
    ping_pong: bool = False


_DELIVER = ForwardDecision(action=ForwardAction.DELIVER)
_OVERHEAR = ForwardDecision(action=ForwardAction.OVERHEAR)
_NO_ROUTE = ForwardDecision(action=ForwardAction.NO_ROUTE)


def classify(
    packet: ViaPacket,
    self_address: int,
    table: RoutingTable,
    *,
    previous_hop: Optional[int] = None,
) -> ForwardDecision:
    """Classify a received via-packet for ``self_address``.

    Broadcast data is always delivered locally and never re-forwarded
    (LoRaMesher broadcasts are single-hop by design — mesh-wide floods
    are an application concern, cf. the flooding baseline).

    ``previous_hop`` is the simulator-side identity of the transmitter
    that handed us the frame (unknown to real hardware).  It never
    changes the decision; it only marks the transient ping-pong case on
    the returned decision for observability.
    """
    if packet.dst == BROADCAST_ADDRESS:
        return _DELIVER
    if packet.dst == self_address:
        return _DELIVER
    if packet.via != self_address:
        return _OVERHEAR

    next_hop = table.next_hop(packet.dst)
    if next_hop is None:
        return _NO_ROUTE
    outgoing = rewrite_via(packet, next_hop)
    return ForwardDecision(
        action=ForwardAction.FORWARD,
        outgoing=outgoing,
        next_hop=next_hop,
        ping_pong=previous_hop is not None and next_hop == previous_hop,
    )


def _with_via(cls):
    """``cls``'s constructor called with every field of a packet as is
    but ``via``: what ``dataclasses.replace(packet, via=...)`` builds,
    without walking the fields by name on every forward.  The field order
    is read off the class once, so a field added later is copied too."""
    names = tuple(f.name for f in fields(cls))
    values_of = attrgetter(*names)
    at = names.index("via")

    def with_via(packet, via):
        values = list(values_of(packet))
        values[at] = via
        return cls(*values)

    return with_via


_VIA_CLASSES = (DataPacket, NeedAckPacket, AckPacket, LostPacket, SyncPacket, XLDataPacket)
_WITH_VIA = {cls: _with_via(cls) for cls in _VIA_CLASSES}


def rewrite_via(packet: ViaPacket, next_hop: int) -> ViaPacket:
    """A copy of ``packet`` with the via field set to ``next_hop``.

    Source and destination are untouched — the mesh forwards end-to-end
    packets, it does not re-originate them.  A subclass of a via-packet
    class keeps its class and fields through ``dataclasses.replace``.
    """
    with_via = _WITH_VIA.get(type(packet))
    if with_via is not None:
        return with_via(packet, next_hop)
    if isinstance(packet, _VIA_CLASSES):
        return replace(packet, via=next_hop)
    raise TypeError(f"cannot rewrite via on {type(packet).__name__}")


def initial_via(dst: int, self_address: int, table: RoutingTable) -> Optional[int]:
    """The via for a locally originated packet towards ``dst``.

    Broadcast maps to the broadcast via.  Returns None when the
    destination is not in the routing table.
    """
    if dst == BROADCAST_ADDRESS:
        return BROADCAST_ADDRESS
    if dst == self_address:
        raise ValueError("refusing to route a packet to self")
    return table.next_hop(dst)
