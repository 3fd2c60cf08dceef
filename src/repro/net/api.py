"""Public application-facing API.

Two entry points:

* :class:`MeshNode` — one LoRa mesh node (a thin, documented alias of the
  full :class:`~repro.net.mesher.MesherNode` service),
* :class:`MeshNetwork` — builds a whole simulated deployment in one call:
  kernel, channel model, medium, and one started node per position.  This
  is what the examples, tests, and benchmarks use.

Both build on :class:`Network`, the substrate every stack shares — the
mesh and the baselines in :mod:`repro.baselines` alike.

Quickstart::

    from repro.net.api import MeshNetwork
    from repro.topology.placement import line_positions

    net = MeshNetwork.from_positions(line_positions(4, spacing_m=120.0), seed=7)
    net.run_until_converged(timeout_s=3600)
    alice, bob = net.addresses[0], net.addresses[-1]
    net.node(alice).send_datagram(bob, b"hello mesh")
    net.run(for_s=60)
    print(net.node(bob).receive())
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.medium.channel import LossInjector, Medium
from repro.net.config import MesherConfig
from repro.net.mesher import AppMessage, MesherNode
from repro.phy.link import LinkBudget
from repro.phy.pathloss import LogDistancePathLoss, PathLossModel, Position
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.trace.events import TraceRecorder


#: The first auto-assigned node address (then +1 per node).
FIRST_ADDRESS = 0x0001


class MeshNode(MesherNode):
    """A LoRa mesh node — see :class:`repro.net.mesher.MesherNode`.

    The public surface applications use:

    * :meth:`~repro.net.mesher.MesherNode.send_datagram` — unreliable,
    * :meth:`~repro.net.mesher.MesherNode.send_reliable` — any size,
      fragmented and repaired transparently,
    * :meth:`~repro.net.mesher.MesherNode.broadcast` — one-hop broadcast,
    * :meth:`~repro.net.mesher.MesherNode.receive` / ``on_message`` —
      consuming delivered :class:`AppMessage` records,
    * :attr:`~repro.net.mesher.MesherNode.table` — the live routing table.
    """


class Network:
    """The substrate of one simulated deployment, whatever its stack.

    One kernel, one seeded RNG registry, and one medium over a link
    budget (``pathloss`` defaults to the measurement-fit log-distance
    model; ``pathloss_factory`` builds a time-varying one from the kernel
    and registry).  Subclasses attach their nodes to ``_nodes``, keyed by
    address in insertion order.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        pathloss: Optional[PathLossModel] = None,
        pathloss_factory: Optional[Callable[[Simulator, RngRegistry], PathLossModel]] = None,
        loss_injector: Optional[LossInjector] = None,
    ) -> None:
        if pathloss is not None and pathloss_factory is not None:
            raise ValueError("pass either pathloss or pathloss_factory, not both")
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        if pathloss_factory is not None:
            # Time-varying channels (block fading) need the kernel clock,
            # which only exists now — hence the factory indirection.
            model: PathLossModel = pathloss_factory(self.sim, self.rngs)
        else:
            model = pathloss if pathloss is not None else LogDistancePathLoss()
        self.medium = Medium(self.sim, LinkBudget(model), loss_injector=loss_injector)
        self._nodes: Dict[int, Any] = {}

    @property
    def addresses(self) -> List[int]:
        """Node addresses in insertion order."""
        return list(self._nodes)

    @property
    def nodes(self) -> List[Any]:
        """All nodes in insertion order."""
        return list(self._nodes.values())

    def node(self, address: int) -> Any:
        """The node with the given address (KeyError if unknown)."""
        return self._nodes[address]

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self):
        return iter(self._nodes.values())

    def run(self, *, until: Optional[float] = None, for_s: Optional[float] = None) -> float:
        """Advance the simulation to ``until`` or by ``for_s`` seconds."""
        if (until is None) == (for_s is None):
            raise ValueError("pass exactly one of until= or for_s=")
        horizon = until if until is not None else self.sim.now + float(for_s)  # type: ignore[arg-type]
        return self.sim.run(until=horizon)

    def total_frames_sent(self) -> int:
        """Frames put on the air across the whole network."""
        return sum(n.radio.frames_sent for n in self._nodes.values())

    def total_bytes_sent(self) -> int:
        """Bytes put on the air across the whole network."""
        return sum(n.radio.bytes_sent for n in self._nodes.values())

    def total_airtime_s(self) -> float:
        """Cumulative transmit airtime across all nodes (seconds)."""
        return sum(n.radio.tx_airtime_s for n in self._nodes.values())


class MeshNetwork(Network):
    """A complete simulated LoRa mesh deployment.

    Prefer the :meth:`from_positions` constructor; the raw ``__init__``
    takes :class:`Network`'s keywords and builds the substrate with no
    nodes, for :meth:`add_node`.
    """

    #: What :meth:`add_node` builds.
    node_class = MeshNode

    def __init__(self, *, trace_enabled: bool = True, **substrate) -> None:
        super().__init__(**substrate)
        self.trace = TraceRecorder(enabled=trace_enabled)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_positions(
        cls,
        positions: Sequence[Position],
        *,
        config: Optional[MesherConfig] = None,
        configs: Optional[Sequence[Optional[MesherConfig]]] = None,
        seed: int = 0,
        pathloss: Optional[PathLossModel] = None,
        pathloss_factory: Optional[Callable[[Simulator, RngRegistry], PathLossModel]] = None,
        addresses: Optional[Sequence[int]] = None,
        trace_enabled: bool = True,
        loss_injector: Optional[LossInjector] = None,
        autostart: bool = True,
    ) -> "MeshNetwork":
        """Build a network with one node per position.

        ``addresses`` defaults to ``0x0001, 0x0002, ...`` in position
        order.  ``pathloss`` defaults to the measurement-fit log-distance
        model (≈135 m SF7 range at 14 dBm), giving multi-hop structure at
        ~120 m spacing.  ``configs`` overrides ``config`` per node (one
        entry per position, None entries fall back to ``config``) — used
        e.g. to give a single node the gateway role.
        """
        if not positions:
            raise ValueError("a network needs at least one node position")
        net = cls(
            seed=seed,
            pathloss=pathloss,
            pathloss_factory=pathloss_factory,
            loss_injector=loss_injector,
            trace_enabled=trace_enabled,
        )
        addrs = (
            list(addresses)
            if addresses is not None
            else [FIRST_ADDRESS + i for i in range(len(positions))]
        )
        if len(addrs) != len(positions):
            raise ValueError("addresses and positions must have equal length")
        if len(set(addrs)) != len(addrs):
            raise ValueError("node addresses must be unique")
        if configs is not None and len(configs) != len(positions):
            raise ValueError("configs and positions must have equal length")
        for i, (address, position) in enumerate(zip(addrs, positions)):
            node_config = configs[i] if configs is not None and configs[i] is not None else config
            net.add_node(address, position, config=node_config)
        if autostart:
            net.start()
        return net

    def add_node(
        self,
        address: int,
        position: Position,
        *,
        config: Optional[MesherConfig] = None,
        name: str = "",
    ) -> MeshNode:
        """Attach one more node (late joiners are a demo scenario)."""
        node = self.node_class(
            self.sim,
            self.medium,
            address,
            position,
            config,
            rngs=self.rngs,
            trace=self.trace,
            name=name,
        )
        self._nodes[address] = node
        return node

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every node that is not yet running."""
        for node in self._nodes.values():
            node.start()

    def run_until_converged(
        self,
        *,
        timeout_s: float,
        check_period_s: float = 10.0,
        require_all: bool = True,
    ) -> Optional[float]:
        """Run until every node can route to every other node.

        Returns the convergence time (simulated seconds from now), or
        None when ``timeout_s`` elapses first.  With ``require_all=False``
        it waits only for the first and last node to reach each other.
        """
        deadline = self.sim.now + timeout_s
        start = self.sim.now
        while self.sim.now < deadline:
            horizon = min(self.sim.now + check_period_s, deadline)
            self.sim.run(until=horizon)
            if self.converged(require_all=require_all):
                return self.sim.now - start
        return None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def converged(self, *, require_all: bool = True) -> bool:
        """Whether routing state covers the whole network.

        Full convergence: every live node has a route to every other live
        node.  Endpoint convergence (``require_all=False``): the first
        and last nodes can reach each other.
        """
        live = [n for n in self._nodes.values() if n.radio.powered and n.started]
        if len(live) < 2:
            return True
        if require_all:
            # O(N) pre-check before the O(N²) pair verification: a table
            # smaller than N-1 entries cannot cover every other node, and
            # during flooding that is the common case — periodic converged()
            # polls on large networks would otherwise pay the full scan on
            # every check.
            needed = len(live) - 1
            for node in live:
                if node.table.size < needed:
                    return False
            for node in live:
                for other in live:
                    if other.address != node.address and not node.table.has_route(other.address):
                        return False
            return True
        first, last = live[0], live[-1]
        return first.table.has_route(last.address) and last.table.has_route(first.address)

    def coverage(self) -> float:
        """Fraction of live ordered node pairs with a route (0..1)."""
        live = [n for n in self._nodes.values() if n.radio.powered and n.started]
        if len(live) < 2:
            return 1.0
        pairs = 0
        routed = 0
        for node in live:
            for other in live:
                if other.address == node.address:
                    continue
                pairs += 1
                if node.table.has_route(other.address):
                    routed += 1
        return routed / pairs

    def describe(self) -> str:
        """Multi-line routing-table dump of the whole network (the demo's
        serial-console view)."""
        return "\n".join(node.table.format() for node in self._nodes.values())
