"""Protocol verification: global invariant checking + fault injection.

* :class:`~repro.verify.invariants.InvariantChecker` — audits routing
  loops, via-consistency, metric sanity, exactly-once delivery, queue
  conservation, and duty-cycle caps on a running network.
* :class:`~repro.verify.faults.FaultInjector` — deterministic node
  crash/revive, link blackout/asymmetry, and burst-loss scripts.

See ``docs/verification.md`` for the invariant catalogue and the
transient-tolerance (grace window) model.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.verify.invariants": (
        "Invariant", "InvariantChecker", "InvariantViolation", "Violation", "STRICT_ENV",
        "strict_from_env",
    ),
    "repro.verify.faults": (
        "NodeCrash", "NodeRevive", "LinkBlackout", "BurstLoss", "FaultEvent", "FaultPlan",
        "FaultInjector", "random_churn_plan",
    ),
})
