"""Protocol configuration.

One :class:`MesherConfig` bundles every tunable of the LoRaMesher stack.
Defaults follow the firmware's shipped configuration (hello every 120 s,
ten-minute route timeout) scaled to the demo's SF7/BW125 setting.  The
ablation benchmarks (A1–A3) sweep these knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.phy.modulation import LoRaParams
from repro.phy.regions import EU868, Region


@dataclass(frozen=True)
class MesherConfig:
    """All protocol tunables for one node (usually shared network-wide)."""

    # --- modulation / regulatory -------------------------------------
    lora: LoRaParams = field(default_factory=LoRaParams)
    region: Region = EU868
    #: Refuse to queue frames that would breach the duty cycle; when False
    #: the node delays sends until the budget allows (default firmware
    #: behaviour is to pace, not drop).
    strict_duty_cycle: bool = False

    # --- routing ------------------------------------------------------
    #: Nominal period between ROUTING broadcasts (seconds).
    hello_period_s: float = 120.0
    #: Uniform jitter applied to each hello interval, +/- this fraction of
    #: the period (desynchronises neighbours' beacons).
    hello_jitter_fraction: float = 0.25
    #: Route entries not refreshed within this window expire (seconds).
    route_timeout_s: float = 600.0
    #: How often the expiry sweep runs (seconds).
    purge_period_s: float = 60.0
    #: Maximum usable hop count; candidates beyond it are ignored.
    max_metric: int = 16
    #: Link-quality extension: when set (dB), an equal-metric route whose
    #: first hop is at least this much stronger (hello SNR) replaces the
    #: incumbent.  None keeps the paper's pure hop-count behaviour.
    link_quality_tiebreak_db: "float | None" = None
    # Class constant, not a field: only perfbench/tracer.py reads it.
    routing_impl = "scalar"

    # --- medium access --------------------------------------------------
    #: Listen-before-talk: number of backoff slots drawn uniformly before
    #: each transmission attempt (0 disables the random wait).
    backoff_slots: int = 8
    #: Duration of one backoff slot (seconds). Default approximates a few
    #: SF7 symbol times.
    backoff_slot_s: float = 0.03
    #: Maximum consecutive busy-channel deferrals before sending anyway
    #: (prevents livelock under saturation).
    max_cad_retries: int = 8

    # --- queues --------------------------------------------------------
    send_queue_capacity: int = 32
    #: Application inbox capacity (delivered, not-yet-consumed messages).
    app_inbox_capacity: int = 64

    # --- reliable transport ---------------------------------------------
    #: Max application bytes per XL_DATA fragment (bounded by the wire
    #: format's MAX_CONTROL_PAYLOAD; smaller values trade airtime per
    #: frame against fragment count).
    fragment_size: int = 180
    #: ACK/next-fragment wait before the sender retransmits (seconds).
    ack_timeout_s: float = 12.0
    #: Receiver-side wait for a missing fragment before sending LOST.
    gap_timeout_s: float = 10.0
    #: Retransmission attempts before a stream is abandoned.
    max_retries: int = 6
    #: Pacing delay between consecutive fragments of one stream (seconds);
    #: gives forwarding hops room and keeps the duty cycle smooth.
    fragment_spacing_s: float = 1.0
    #: Maximum concurrent inbound reliable streams tracked per node.
    max_inbound_streams: int = 8

    # --- retransmit timer policy ----------------------------------------
    #: Exponential growth factor applied to the retransmit timeout per
    #: consecutive on-air retry of the same single/stream.  1.0 restores
    #: the historical fixed-interval timer (every retry waits exactly the
    #: base timeout) — with ``retry_jitter_fraction=0`` and
    #: ``adaptive_rto=False`` the schedule is bit-identical to the
    #: pre-backoff implementation.
    retry_backoff_base: float = 2.0
    #: Upper bound on a single backed-off retransmit wait (seconds); the
    #: cap only limits growth, it never shrinks the base timeout.
    retry_backoff_cap_s: float = 120.0
    #: Deterministic per-attempt jitter, +/- this fraction of the
    #: timeout.  Drawn from a hash of (address, seq, attempt), not from a
    #: shared RNG stream, so enabling it perturbs nothing else.  Breaks
    #: the lock-step retransmission of flows that timed out together.
    retry_jitter_fraction: float = 0.25
    #: Use per-destination SRTT/RTTVAR (RFC 6298 style) as the base
    #: retransmit timeout once ACK round-trips have been sampled;
    #: ``ack_timeout_s`` remains the cold-start value and the upper clamp.
    adaptive_rto: bool = True
    #: Local failures (no route yet, TX queue full) consume this separate
    #: budget instead of ``max_retries``: the frame never aired, so a
    #: transient queue spike must not exhaust the on-air retry budget.
    #: Local re-checks wait the un-backed-off base timeout.
    max_local_defers: int = 25

    # --- stream layer ---------------------------------------------------
    #: Sliding-window size of the connection-oriented stream layer: max
    #: reliable messages in flight per stream before send() queues.
    stream_window: int = 4

    # --- roles -----------------------------------------------------------
    #: Role bits this node advertises (see packets.NodeRole).
    role: int = 0

    def __post_init__(self) -> None:
        if self.hello_period_s <= 0:
            raise ValueError("hello_period_s must be positive")
        if not 0 <= self.hello_jitter_fraction < 1:
            raise ValueError("hello_jitter_fraction must be in [0, 1)")
        if self.route_timeout_s <= self.hello_period_s:
            raise ValueError(
                "route_timeout_s must exceed hello_period_s or every route "
                "flaps between consecutive hellos"
            )
        if not 1 <= self.max_metric <= 255:
            raise ValueError("max_metric must fit the wire metric (1..255)")
        if self.link_quality_tiebreak_db is not None and self.link_quality_tiebreak_db < 0:
            raise ValueError("link_quality_tiebreak_db must be >= 0")
        if self.backoff_slots < 0 or self.backoff_slot_s < 0:
            raise ValueError("backoff parameters must be non-negative")
        if not 1 <= self.fragment_size <= 244:
            raise ValueError("fragment_size must be in [1, 244] (wire limit)")
        if self.ack_timeout_s <= 0 or self.gap_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_base < 1.0:
            raise ValueError("retry_backoff_base must be >= 1.0 (1.0 disables backoff)")
        if self.retry_backoff_cap_s <= 0:
            raise ValueError("retry_backoff_cap_s must be positive")
        if not 0 <= self.retry_jitter_fraction < 1:
            raise ValueError("retry_jitter_fraction must be in [0, 1)")
        if self.max_local_defers < 0:
            raise ValueError("max_local_defers must be >= 0")
        if self.stream_window < 1:
            raise ValueError("stream_window must be >= 1")

    def replace(self, **changes) -> "MesherConfig":
        """Copy with the given fields replaced."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)
