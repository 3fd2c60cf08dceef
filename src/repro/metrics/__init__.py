"""Measurement: PDR, latency, overhead, convergence, and energy.

* :mod:`repro.metrics.collect` — the :class:`FlowRecorder` that matches
  probe deliveries to sends, plus network-level overhead summaries,
* :mod:`repro.metrics.stats` — small-sample statistics helpers,
* :mod:`repro.metrics.energy` — an SX1276+ESP32 energy model over the
  radio's per-state residency times.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.collect": (
        "FlowRecorder", "FlowSummary", "attach_recorder", "overhead_summary",
    ),
    "repro.metrics.energy": ("EnergyModel", "TTGO_LORA32"),
    "repro.metrics.health": ("NetworkHealth", "network_health"),
    "repro.metrics.stats": ("mean", "percentile", "summary_stats"),
})
