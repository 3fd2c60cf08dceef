"""Distributed applications on top of the mesh.

The paper closes with: *"LoRaMesher can open the possibility for new
distributed applications hosted only on such tiny IoT nodes."*  This
package makes that concrete: applications written purely against the
public node API (datagrams, broadcasts, reliable transfers, the inbox) —
no access to routing internals, exactly like firmware linked against the
library.

* :mod:`repro.apps.ota` — epidemic over-the-air update dissemination:
  one node is seeded with a new firmware blob and the whole mesh
  converges on it, neighbour to neighbour,
* :mod:`repro.apps.ping` — echo responder + pinger: end-to-end
  reachability and RTT measurement (the mesh's diagnostic tool).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.apps.ota": ("OtaNode", "deploy_ota"),
    "repro.apps.ping": ("Pinger", "deploy_responders", "install_responder"),
})
