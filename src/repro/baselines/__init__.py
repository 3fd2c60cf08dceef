"""Comparison protocols running on the same substrate as LoRaMesher.

The paper motivates mesh routing against the two obvious alternatives:

* :mod:`repro.baselines.flooding` — controlled flooding: every node
  rebroadcasts every packet once (dedup + TTL).  Delivers without any
  routing state, at a steep airtime and collision cost.
* :mod:`repro.baselines.star` — the LoRaWAN-style star: end nodes talk
  only to a gateway, which relays.  No multi-hop: out-of-range nodes are
  simply unreachable.
* :mod:`repro.baselines.idealrouter` — an oracle upper bound: LoRaMesher
  nodes whose routing tables are pre-filled with global shortest paths
  and whose hello service is disabled (zero control overhead, perfect
  routes),
* :mod:`repro.baselines.aodv` — reactive (on-demand) routing: RREQ
  floods discover routes only when traffic needs them, the proactive
  protocol's opposite corner of the design space.

All of them build on :class:`repro.net.api.Network` (the identical
kernel/PHY/medium/radio substrate), transmit through the mesh's
:class:`repro.net.pump.TxPump` from an outbox bounded like the mesh's
(``send_queue_capacity``, dropping and counting past it), and take their
radio parameters and regional rules from the same ``MesherConfig``, so
benchmark differences isolate the protocol, not the substrate.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.aodv": ("AodvNode", "AodvNetwork"),
    "repro.baselines.flooding": ("FloodingNode", "FloodingNetwork"),
    "repro.baselines.star": ("StarNetwork",),
    "repro.baselines.idealrouter": ("OracleNode", "build_oracle_network"),
})
