"""Node placement, connectivity analysis, and dynamics.

The demo's observable behaviour (multi-hop routes emerge) is a property of
the deployment geometry.  This package generates the geometries the
benchmarks sweep (lines, grids, random fields, campus clusters), analyses
their radio connectivity with networkx, and scripts runtime dynamics
(node failures, mobility).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.planning": ("minimum_connecting_sf", "plan_all_sfs"),
    "repro.topology.layout": ("Layout", "LayoutNode", "load_layout", "save_layout"),
    "repro.topology.placement": (
        "line_positions", "grid_positions", "ring_positions", "random_positions",
        "campus_positions",
    ),
    "repro.topology.graphs": ("connectivity_graph", "graph_stats", "is_connected"),
    "repro.topology.mobility": ("FailureSchedule", "RandomWaypoint"),
})
