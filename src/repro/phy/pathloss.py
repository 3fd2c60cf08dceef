"""Propagation / path-loss models.

The paper's demo spread TTGO boards through a building so that not every
node could hear every other — that connectivity structure is what makes
the mesh interesting.  We reproduce it with standard parametric models:

* :class:`FreeSpacePathLoss` — Friis free-space loss (outdoor line of sight),
* :class:`LogDistancePathLoss` — log-distance with optional log-normal
  shadowing, the standard LoRa simulation model (exponent ~2.7–3.5 urban),
* :class:`MultiWallPathLoss` — log-distance plus a per-wall penalty for
  indoor deployments like the demo's.

All models map a (tx position, rx position) pair to a loss in dB; the
shadowing component, when enabled, is *frozen per link* (drawn once from a
named RNG stream and cached) so the channel is static during a run, as is
standard in LoRa mesh evaluations.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

import numpy as _np

Position = Tuple[float, float]


# The scalar models route their transcendental ops through numpy so
# that the vectorized batch engine (repro.phy.batch) is bit-identical
# to the scalar path: numpy's SIMD log10/hypot kernels differ from
# libm's math.log10/math.hypot in the last ulp, but numpy agrees with
# itself between scalar and array calls.  Everything else in the loss
# formulas is +/-/*//, which IEEE 754 rounds identically everywhere.
_np_log10 = _np.log10
_np_hypot = _np.hypot


def _log10(x: float) -> float:
    return float(_np_log10(x))


def _hypot(x: float, y: float) -> float:
    return float(_np_hypot(x, y))


def distance(a: Position, b: Position) -> float:
    """Euclidean distance between two planar positions in metres."""
    return _hypot(a[0] - b[0], a[1] - b[1])


class PathLossModel:
    """Interface: loss in dB between two positions at a carrier frequency."""

    def loss_db(self, tx: Position, rx: Position, frequency_mhz: float) -> float:
        """Path loss (positive dB) from ``tx`` to ``rx``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any cached per-link randomness (new channel realisation).

        Callers that reset a model mid-run must also call
        :meth:`repro.phy.link.LinkBudget.invalidate` on any budget built
        over it, or memoized link qualities keep the old realisation.
        """

    @property
    def time_varying(self) -> bool:
        """True when the loss for a fixed position pair can change over
        simulated time (e.g. block fading).  Disables position-keyed
        memoization in :class:`~repro.phy.link.LinkBudget`."""
        return False

    @property
    def reciprocal(self) -> bool:
        """True when ``loss_db(a, b) == loss_db(b, a)`` exactly for every
        position pair.  Lets :class:`~repro.phy.link.LinkBudget` fold both
        directions of a link into one memo entry.  Defaults to False so an
        asymmetric custom model is never folded by accident; the built-in
        distance-based models override it."""
        return False

    @property
    def order_sensitive(self) -> bool:
        """True when the loss for a link is drawn lazily from a *shared*
        RNG stream, so the set/order of first evaluations changes the
        realisation (frozen shadowing).  Rules out the batch engine, so
        the medium resolves every frame with its full per-listener scan,
        which evaluates links in the order the realisation depends on."""
        return False


class FreeSpacePathLoss(PathLossModel):
    """Friis free-space path loss.

    ``L = 20 log10(d_km) + 20 log10(f_MHz) + 32.44``; a floor of 1 m is
    applied so co-located nodes do not produce -inf.
    """

    MIN_DISTANCE_M = 1.0

    def loss_db(self, tx: Position, rx: Position, frequency_mhz: float) -> float:
        d_km = max(distance(tx, rx), self.MIN_DISTANCE_M) / 1000.0
        return 20.0 * _log10(d_km) + 20.0 * _log10(frequency_mhz) + 32.44

    @property
    def reciprocal(self) -> bool:
        return True


class LogDistancePathLoss(PathLossModel):
    """Log-distance path loss with optional frozen log-normal shadowing.

    ``L(d) = L0 + 10 n log10(d / d0) + X_sigma`` where ``X_sigma`` is a
    zero-mean Gaussian (dB) drawn once per unordered link and cached, so
    the channel is reciprocal and static — matching the quasi-static
    building deployment of the demo.

    Defaults (``L0=127.41 dB at d0=40 m, n=2.08``) are the Petäjäjärvi et
    al. measurement fit for 868 MHz LoRa widely used by LoRaSim-derived
    simulators.
    """

    def __init__(
        self,
        *,
        exponent: float = 2.08,
        reference_distance_m: float = 40.0,
        reference_loss_db: float = 127.41,
        shadowing_sigma_db: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if exponent <= 0:
            raise ValueError(f"path-loss exponent must be positive, got {exponent}")
        if reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        if shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma must be >= 0")
        if shadowing_sigma_db > 0 and rng is None:
            raise ValueError("shadowing requires an RNG stream for reproducibility")
        self.exponent = exponent
        self.reference_distance_m = reference_distance_m
        self.reference_loss_db = reference_loss_db
        self.shadowing_sigma_db = shadowing_sigma_db
        self._rng = rng
        self._shadowing_cache: Dict[Tuple[Position, Position], float] = {}

    def loss_db(self, tx: Position, rx: Position, frequency_mhz: float) -> float:
        d = _hypot(tx[0] - rx[0], tx[1] - rx[1])  # inlined distance()
        if d < 1.0:
            d = 1.0
        loss = self.reference_loss_db + 10.0 * self.exponent * _log10(
            d / self.reference_distance_m
        )
        if self.shadowing_sigma_db == 0.0:
            return loss
        return loss + self._shadowing(tx, rx)

    def _shadowing(self, tx: Position, rx: Position) -> float:
        if self.shadowing_sigma_db == 0.0:
            return 0.0
        key = (tx, rx) if tx <= rx else (rx, tx)
        cached = self._shadowing_cache.get(key)
        if cached is None:
            assert self._rng is not None
            cached = self._rng.gauss(0.0, self.shadowing_sigma_db)
            self._shadowing_cache[key] = cached
        return cached

    def reset(self) -> None:
        self._shadowing_cache.clear()

    @property
    def order_sensitive(self) -> bool:
        return self.shadowing_sigma_db > 0.0

    @property
    def reciprocal(self) -> bool:
        # The deterministic term depends only on |tx - rx|; the shadowing
        # draw is keyed on the unordered pair, so both directions see the
        # same realisation.
        return True


class MultiWallPathLoss(PathLossModel):
    """Indoor model: log-distance plus a fixed penalty per intervening wall.

    Walls are axis-aligned segments supplied as ``((x1, y1), (x2, y2))``
    pairs; the loss adds ``wall_loss_db`` for every wall the direct path
    crosses.  This captures the demo's "nodes on different floors/corridors
    can't hear each other directly" structure with a handful of segments.
    """

    def __init__(
        self,
        walls: list[tuple[Position, Position]],
        *,
        wall_loss_db: float = 8.0,
        exponent: float = 2.0,
        reference_loss_db: float = 40.0,
        reference_distance_m: float = 1.0,
    ) -> None:
        if wall_loss_db < 0:
            raise ValueError("wall loss must be >= 0")
        self.walls = list(walls)
        self.wall_loss_db = wall_loss_db
        self._base = LogDistancePathLoss(
            exponent=exponent,
            reference_distance_m=reference_distance_m,
            reference_loss_db=reference_loss_db,
        )

    def loss_db(self, tx: Position, rx: Position, frequency_mhz: float) -> float:
        crossings = sum(1 for wall in self.walls if _segments_intersect(tx, rx, *wall))
        return self._base.loss_db(tx, rx, frequency_mhz) + crossings * self.wall_loss_db

    def reset(self) -> None:
        self._base.reset()

    @property
    def reciprocal(self) -> bool:
        # Wall crossings and the log-distance base are both symmetric in
        # the segment endpoints.
        return True


def _orientation(p: Position, q: Position, r: Position) -> int:
    """0 collinear, 1 clockwise, 2 counterclockwise."""
    val = (q[1] - p[1]) * (r[0] - q[0]) - (q[0] - p[0]) * (r[1] - q[1])
    if abs(val) < 1e-12:
        return 0
    return 1 if val > 0 else 2


def _on_segment(p: Position, q: Position, r: Position) -> bool:
    return (
        min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
        and min(p[1], r[1]) <= q[1] <= max(p[1], r[1])
    )


def _segments_intersect(p1: Position, q1: Position, p2: Position, q2: Position) -> bool:
    """Whether segment p1-q1 intersects segment p2-q2 (inclusive)."""
    o1 = _orientation(p1, q1, p2)
    o2 = _orientation(p1, q1, q2)
    o3 = _orientation(p2, q2, p1)
    o4 = _orientation(p2, q2, q1)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, p2, q1):
        return True
    if o2 == 0 and _on_segment(p1, q2, q1):
        return True
    if o3 == 0 and _on_segment(p2, p1, q2):
        return True
    if o4 == 0 and _on_segment(p2, q1, q2):
        return True
    return False
