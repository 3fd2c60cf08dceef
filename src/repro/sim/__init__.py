"""Discrete-event simulation kernel.

This package is the substrate that replaces the paper's FreeRTOS runtime:
a deterministic, single-threaded event scheduler with simulated time,
cancellable timers, and named deterministic random-number streams.

The kernel is intentionally small and dependency-free so that every other
subsystem (PHY, medium, radio driver, the LoRaMesher protocol itself) can
be tested against it in isolation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.kernel": ("Simulator", "EventHandle"),
    "repro.sim.rng": ("RngRegistry",),
    "repro.sim.errors": ("SimulationError",),
})
