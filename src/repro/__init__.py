"""repro — a Python reproduction of LoRaMesher (ICDCS 2022 demo).

LoRaMesher is a library that turns LoRa IoT nodes into a standalone mesh
network: a distance-vector routing protocol lets any two nodes exchange
data while the other nodes forward for them, with no gateway or LoRaWAN
infrastructure.  This package reproduces the library and, because the
original runs on ESP32+SX127x hardware, also provides the full simulation
substrate it needs: a discrete-event kernel, LoRa PHY models, a shared
radio medium, and an SX127x-style driver.

Most users want :class:`repro.MeshNetwork`::

    from repro import MeshNetwork
    from repro.topology import line_positions

    net = MeshNetwork.from_positions(line_positions(4), seed=7)
    net.run_until_converged(timeout_s=3600)
    a, d = net.addresses[0], net.addresses[-1]
    net.node(a).send_datagram(d, b"hello mesh")
    net.run(for_s=60)
    print(net.node(d).receive())

Subpackages
-----------
``repro.sim``       discrete-event kernel, timers, RNG streams
``repro.phy``       airtime, path loss, link budget, duty-cycle rules
``repro.medium``    the shared channel (collisions, capture)
``repro.radio``     SX127x-style half-duplex driver
``repro.net``       the LoRaMesher protocol (the paper's contribution)
``repro.baselines`` flooding / star / oracle comparison protocols
``repro.topology``  placements, connectivity graphs, failures, mobility
``repro.workload``  traffic generators and stream-flow workloads
``repro.metrics``   PDR/latency/overhead/energy collection
``repro.experiments`` the benchmark harness
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.api": ("AppMessage", "MeshNetwork", "MeshNode"),
    "repro.net.config": ("MesherConfig",),
    "repro.net.addresses": ("BROADCAST_ADDRESS",),
    "repro.phy.modulation": ("LoRaParams", "SpreadingFactor", "Bandwidth", "CodingRate"),
    "repro.sim.kernel": ("Simulator",),
    "repro.sim.rng": ("RngRegistry",),
})
__all__.append("__version__")
