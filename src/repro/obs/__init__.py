"""Unified observability: metrics, time series, profiling, export.

The paper's demo is observed through a serial console; this layer is the
reproduction's equivalent of a proper telemetry stack:

* :mod:`repro.obs.registry` — typed instruments (:class:`Counter`,
  :class:`Gauge`, :class:`Histogram`) in a :class:`MetricsRegistry`,
* :mod:`repro.obs.instrument` — binds live nodes/queues/radios/networks
  into a registry with callback-backed instruments,
* :mod:`repro.obs.sampler` — a kernel process that snapshots the
  registry every N simulated seconds into an exportable time series,
* :mod:`repro.obs.profiler` — wall-clock attribution per event handler
  (the baseline every performance PR cites),
* :mod:`repro.obs.export` — Prometheus text and JSONL exposition,
* :mod:`repro.obs.store` — WAL-mode SQLite event store every run can
  stream into (frames, route events, deliveries, violations, samples),
* :mod:`repro.obs.dashboard` — stdlib HTTP + SSE dashboard serving a
  live topology map, health cards, and replayable event feeds from a
  store, during or after the run.

Quickstart::

    from repro.obs import MetricsRegistry, TimeSeriesSampler, instrument_network

    registry = MetricsRegistry()
    instrument_network(registry, net)
    sampler = TimeSeriesSampler(net.sim, registry, period_s=120.0)
    net.run(for_s=3600)
    sampler.export_csv("health.csv")
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.registry": (
        "Counter", "Gauge", "Histogram", "MetricError", "MetricSample", "MetricsRegistry",
        "LATENCY_BUCKETS_S", "AIRTIME_BUCKETS_S",
    ),
    "repro.obs.sampler": (
        "SamplePoint", "TimeSeriesSampler", "load_timeseries_jsonl", "load_timeseries_csv",
    ),
    "repro.obs.store": ("EventStore", "StoredEvent", "StoreRecorder"),
    "repro.obs.dashboard": ("DashboardServer",),
    "repro.obs.profiler": ("KernelProfiler", "HotSpot"),
    "repro.obs.instrument": (
        "instrument_network", "instrument_node", "instrument_flows", "instrument_shards",
    ),
    "repro.obs.export": (
        "to_prometheus", "to_jsonl", "from_jsonl", "export_jsonl", "export_prometheus",
    ),
})
