"""LoRaMesher — the paper's core contribution.

This package is the Python reproduction of the LoRaMesher library: a
distance-vector mesh routing protocol that runs directly on LoRa nodes,
letting any two nodes exchange data packets while the rest of the mesh
forwards for them, with no gateway or LoRaWAN infrastructure.

Layout
------
* :mod:`repro.net.addresses` — 16-bit node addresses derived from MACs,
* :mod:`repro.net.packets` / :mod:`repro.net.serialization` — byte-exact
  packet formats (routing, data, reliable-stream control),
* :mod:`repro.net.routing_table` — the distance-vector routing table,
* :mod:`repro.net.queues` — fixed-capacity packet queues (FreeRTOS-style),
* :mod:`repro.net.hello` — periodic routing-table dissemination,
* :mod:`repro.net.forwarding` — the data plane (via-based hop forwarding),
* :mod:`repro.net.reliable` — large-payload SYNC/XL_DATA/LOST/ACK streams,
* :mod:`repro.net.stream` — connection-oriented streams (SYN/OPEN/FIN)
  with sliding-window flow control over the reliable transport,
* :mod:`repro.net.mesher` — the node service tying it all together,
* :mod:`repro.net.api` — the public application-facing API.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.addresses": ("BROADCAST_ADDRESS", "address_from_mac", "format_address"),
    "repro.net.config": ("MesherConfig",),
    "repro.net.packets": (
        "PacketType", "RoutingEntry", "RoutingPacket", "DataPacket", "AckPacket", "LostPacket",
        "SyncPacket", "XLDataPacket",
    ),
    "repro.net.routing_table": ("RouteEntry", "RoutingTable", "make_routing_table"),
    "repro.net.api": ("MeshNode", "MeshNetwork", "AppMessage"),
    "repro.net.stream": ("Stream", "StreamManager", "StreamState", "StreamStats"),
})
