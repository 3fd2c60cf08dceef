"""Traffic generation and stream-flow workloads.

Traffic generators drive application sends on mesh (or baseline) nodes;
each datagram carries a :mod:`probe <repro.workload.probes>` header
(source, sequence, send-timestamp) so the metrics layer can match
deliveries to sends and compute PDR and latency without global state.
:mod:`repro.workload.flows` runs concurrent bursty, OTA and chat stream
flows and reports per-flow latency and goodput.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workload.probes": ("Probe", "make_probe", "parse_probe", "PROBE_OVERHEAD"),
    "repro.workload.traffic": ("PeriodicSender", "PoissonSender"),
    "repro.workload.flows": (
        "FlowEngine", "FlowSpec", "FlowState", "WorkloadSummary", "build_workload",
        "WORKLOAD_KINDS",
    ),
})
