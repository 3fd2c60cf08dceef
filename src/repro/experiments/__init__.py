"""The experiment harness behind ``benchmarks/``.

* :mod:`repro.experiments.runner` — builds a network of the requested
  protocol (mesh / flooding / star / oracle), attaches probe traffic and
  a flow recorder, runs it, and returns a uniform result record,
* :mod:`repro.experiments.sweep` — parameter sweeps with per-point seed
  repetition and aggregation,
* :mod:`repro.experiments.report` — fixed-width table printing so every
  bench emits the same row format the paper's tables would.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.runner": ("Protocol", "TrafficSpec", "RunResult", "run_protocol"),
    "repro.experiments.report": ("print_table", "format_table"),
    "repro.experiments.sweep": ("sweep_grid", "repeat_seeds", "run_parallel", "derive_seed"),
    "repro.experiments.ascii_plot": ("ascii_plot", "print_plot"),
    "repro.experiments.export": ("ExperimentRecord", "export_records", "load_records"),
    "repro.experiments.regression": ("ComparisonReport", "compare_files", "compare_records"),
})
