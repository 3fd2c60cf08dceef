"""Structured event tracing.

A :class:`~repro.trace.events.TraceRecorder` collects typed event records
(packet sent/received/forwarded/dropped, route changes, stream lifecycle)
from every node in a run.  The metrics layer and many tests consume the
trace instead of poking protocol internals, so assertions stay decoupled
from implementation details.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.trace.events": ("EventKind", "TraceEvent", "TraceRecorder"),
    "repro.trace.capture": ("AirCapture", "CapturedFrame"),
})
