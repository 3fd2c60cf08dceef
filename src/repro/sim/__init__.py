"""Discrete-event simulation kernel.

This package is the substrate that replaces the paper's FreeRTOS runtime:
a deterministic, single-threaded event scheduler with simulated time,
cancellable timers, and named deterministic random-number streams.

The kernel is intentionally small and dependency-free so that every other
subsystem (PHY, medium, radio driver, the LoRaMesher protocol itself) can
be tested against it in isolation.
"""

from repro.sim.errors import SimulationError
from repro.sim.kernel import Simulator, EventHandle
from repro.sim.rng import RngRegistry

__all__ = [
    "Simulator",
    "EventHandle",
    "RngRegistry",
    "SimulationError",
]
