"""Vectorized batch PHY engine.

Scaling the simulation past a few dozen nodes turns every topology-level
computation — reachable-set construction, connectivity graphs, SF
planning — into an O(N²) Python loop over scalar
:meth:`~repro.phy.link.LinkBudget.evaluate` calls.  This module computes
the same quantities as numpy matrices in one shot: RSSI/SNR/link-margin
over (tx positions × rx positions), with per-SF noise and demodulation
floors broadcast across the matrix.

**Bit-exactness contract.**  Every matrix cell equals the scalar
``LinkBudget.evaluate`` result for that pair *exactly* (no tolerance):
the scalar models route their transcendental ops through numpy scalar
kernels (see ``repro.phy.pathloss._log10``/``_hypot``), which numpy
guarantees agree with its array kernels, and every other op is IEEE
+/-/*// evaluated in the same order as the scalar code.  The property
test ``tests/phy/test_batch_phy.py`` asserts exact equality over random
placements, params, and every built-in model.

Batch support is per path-loss model, registered by exact type so a
subclass with an overridden ``loss_db`` is never silently vectorized
with the parent's formula.  Models that are ``time_varying`` or
``order_sensitive`` (frozen shadowing drawn lazily from a shared RNG
stream) are excluded.  :func:`supports_batch` also picks the medium's
reception engine: the neighbourhood-bounded one where it holds, the full
per-listener scan everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Type

import numpy as np

from repro.phy.link import (
    LinkBudget,
    _NOISE_FLOOR_DBM,
    _SNR_FLOOR_DB,
    sensitivity_dbm,
)
from repro.phy.modulation import LoRaParams
from repro.phy.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    MultiWallPathLoss,
    PathLossModel,
    Position,
)


# ----------------------------------------------------------------------
# Position arrays
# ----------------------------------------------------------------------
def positions_array(positions: Sequence[Position]) -> "np.ndarray":
    """``(n, 2)`` float64 array from a sequence of ``(x, y)`` tuples."""
    return np.asarray(positions, dtype=np.float64).reshape(len(positions), 2)


def _distance_matrix(txs: "np.ndarray", rxs: "np.ndarray") -> "np.ndarray":
    """``(n, m)`` pairwise distances; bit-identical to the scalar models'
    per-pair ``_hypot(dx, dy)``."""
    dx = txs[:, 0][:, None] - rxs[:, 0][None, :]
    dy = txs[:, 1][:, None] - rxs[:, 1][None, :]
    return np.hypot(dx, dy)


# ----------------------------------------------------------------------
# Per-model batch loss kernels (registered by exact type)
# ----------------------------------------------------------------------
def _freespace_loss(
    model: FreeSpacePathLoss, txs: "np.ndarray", rxs: "np.ndarray", frequency_mhz: float
) -> "np.ndarray":
    d = _distance_matrix(txs, rxs)
    np.maximum(d, model.MIN_DISTANCE_M, out=d)
    d /= 1000.0
    # Scalar op order: (20*log10(d_km) + 20*log10(f)) + 32.44.
    f_term = 20.0 * float(np.log10(frequency_mhz))
    return (20.0 * np.log10(d) + f_term) + 32.44


def _freespace_max_range(
    model: FreeSpacePathLoss, max_loss_db: float, frequency_mhz: float
) -> float:
    f_term = 20.0 * float(np.log10(frequency_mhz))
    return 1000.0 * 10.0 ** ((max_loss_db - 32.44 - f_term) / 20.0)


def _logdistance_loss(
    model: LogDistancePathLoss, txs: "np.ndarray", rxs: "np.ndarray", frequency_mhz: float
) -> "np.ndarray":
    # sigma > 0 is order_sensitive and never reaches this kernel.
    d = _distance_matrix(txs, rxs)
    np.maximum(d, 1.0, out=d)
    k = 10.0 * model.exponent
    return model.reference_loss_db + k * np.log10(d / model.reference_distance_m)


def _logdistance_max_range(
    model: LogDistancePathLoss, max_loss_db: float, frequency_mhz: float
) -> float:
    k = 10.0 * model.exponent
    return model.reference_distance_m * 10.0 ** ((max_loss_db - model.reference_loss_db) / k)


def _wall_crossed(
    txs: "np.ndarray", rxs: "np.ndarray", wall: Tuple[Position, Position]
) -> "np.ndarray":
    """Boolean ``(n, m)`` matrix of direct paths crossing one wall.

    Vectorized transcription of ``pathloss._segments_intersect`` (same
    orientation epsilon, same inclusive endpoint handling) so crossing
    counts match the scalar model exactly.
    """
    (wx1, wy1), (wx2, wy2) = wall
    p1x = txs[:, 0][:, None]
    p1y = txs[:, 1][:, None]
    q1x = rxs[:, 0][None, :]
    q1y = rxs[:, 1][None, :]

    def orient(px, py, qx, qy, rx, ry):
        val = (qy - py) * (rx - qx) - (qx - px) * (ry - qy)
        return np.where(np.abs(val) < 1e-12, 0, np.where(val > 0, 1, 2))

    def on_segment(px, py, qx, qy, rx, ry):
        return (
            (np.minimum(px, rx) <= qx)
            & (qx <= np.maximum(px, rx))
            & (np.minimum(py, ry) <= qy)
            & (qy <= np.maximum(py, ry))
        )

    o1 = orient(p1x, p1y, q1x, q1y, wx1, wy1)
    o2 = orient(p1x, p1y, q1x, q1y, wx2, wy2)
    o3 = orient(wx1, wy1, wx2, wy2, p1x, p1y)
    o4 = orient(wx1, wy1, wx2, wy2, q1x, q1y)
    crossed = (o1 != o2) & (o3 != o4)
    crossed |= (o1 == 0) & on_segment(p1x, p1y, wx1, wy1, q1x, q1y)
    crossed |= (o2 == 0) & on_segment(p1x, p1y, wx2, wy2, q1x, q1y)
    crossed |= (o3 == 0) & on_segment(wx1, wy1, p1x, p1y, wx2, wy2)
    crossed |= (o4 == 0) & on_segment(wx1, wy1, q1x, q1y, wx2, wy2)
    return crossed


def _multiwall_loss(
    model: MultiWallPathLoss, txs: "np.ndarray", rxs: "np.ndarray", frequency_mhz: float
) -> "np.ndarray":
    base = _logdistance_loss(model._base, txs, rxs, frequency_mhz)
    crossings = np.zeros(base.shape, dtype=np.float64)
    for wall in model.walls:
        crossings += _wall_crossed(txs, rxs, wall)
    return base + crossings * model.wall_loss_db


def _multiwall_max_range(
    model: MultiWallPathLoss, max_loss_db: float, frequency_mhz: float
) -> float:
    # Walls only add loss, so the wall-free base bounds the range.
    return _logdistance_max_range(model._base, max_loss_db, frequency_mhz)


_LossKernel = Callable[[PathLossModel, "np.ndarray", "np.ndarray", float], "np.ndarray"]
_RangeKernel = Callable[[PathLossModel, float, float], float]

#: Exact model type -> (batch loss kernel, max-range inverse).
_BATCH_KERNELS: Dict[Type[PathLossModel], Tuple[_LossKernel, _RangeKernel]] = {
    FreeSpacePathLoss: (_freespace_loss, _freespace_max_range),
    LogDistancePathLoss: (_logdistance_loss, _logdistance_max_range),
    MultiWallPathLoss: (_multiwall_loss, _multiwall_max_range),
}


def register_batch_kernels(
    model_type: Type[PathLossModel], loss: _LossKernel, max_range: _RangeKernel
) -> None:
    """Register batch kernels for a custom path-loss model type.

    ``loss`` must be bit-identical to the model's scalar ``loss_db`` (use
    numpy ops in the scalar op order); ``max_range(model, max_loss_db,
    frequency_mhz)`` must return a distance beyond which ``loss_db``
    always exceeds ``max_loss_db``.
    """
    _BATCH_KERNELS[model_type] = (loss, max_range)


def supports_batch_model(model: PathLossModel) -> bool:
    """Whether ``model`` has a registered batch kernel it is safe to use:
    exact type registered, loss static in time, and realisation
    independent of evaluation order."""
    return (
        type(model) in _BATCH_KERNELS
        and not model.time_varying
        and not model.order_sensitive
    )


def supports_batch(link_budget: LinkBudget) -> bool:
    """Whether the batch engine can stand in for scalar evaluation."""
    return supports_batch_model(link_budget.pathloss)


# ----------------------------------------------------------------------
# Link matrices
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkMatrix:
    """Batched link qualities over (tx positions × rx positions).

    Cell ``[i, j]`` equals the scalar ``LinkBudget.evaluate(tx[i], rx[j],
    params)`` result bit-for-bit; ``margin_db`` additionally reports the
    SNR headroom above the per-SF demodulation floor.
    """

    rssi_dbm: "np.ndarray"  # (n, m) float64
    snr_db: "np.ndarray"  # (n, m) float64
    margin_db: "np.ndarray"  # (n, m) float64, snr - per-SF floor
    above_sensitivity: "np.ndarray"  # (n, m) bool


def _tx_base_dbm(link_budget: LinkBudget, params: LoRaParams) -> float:
    """EIRP minus fixed losses, associated exactly like the scalar
    ``LinkBudget._compute_quality``."""
    return (
        (params.tx_power_dbm + link_budget.tx_antenna_gain_dbi)
        + link_budget.rx_antenna_gain_dbi
    ) - link_budget.fixed_loss_db


def batch_loss_db(
    model: PathLossModel,
    txs: "np.ndarray",
    rxs: "np.ndarray",
    frequency_mhz: float,
) -> "np.ndarray":
    """``(n, m)`` path-loss matrix via the model's registered kernel."""
    kernel, _ = _BATCH_KERNELS[type(model)]
    return kernel(model, txs, rxs, frequency_mhz)


def link_matrices(
    link_budget: LinkBudget,
    tx_positions: Sequence[Position],
    rx_positions: Sequence[Position],
    params: LoRaParams,
) -> LinkMatrix:
    """RSSI/SNR/margin matrices for every (tx, rx) position pair.

    Caller must ensure :func:`supports_batch` holds; kernels for
    unregistered models raise ``KeyError``.
    """
    txs = positions_array(tx_positions)
    rxs = positions_array(rx_positions)
    loss = batch_loss_db(link_budget.pathloss, txs, rxs, params.frequency_mhz)
    rssi = _tx_base_dbm(link_budget, params) - loss
    noise = _NOISE_FLOOR_DBM[params.bandwidth]
    floor = _SNR_FLOOR_DB[params.spreading_factor]
    snr = rssi - noise
    margin = snr - floor
    return LinkMatrix(
        rssi_dbm=rssi,
        snr_db=snr,
        margin_db=margin,
        above_sensitivity=snr >= floor,
    )


def rssi_matrix(
    link_budget: LinkBudget,
    tx_positions: Sequence[Position],
    rx_positions: Sequence[Position],
    params: LoRaParams,
) -> "np.ndarray":
    """The RSSI plane alone — interference accounting needs no SNR or
    threshold planes, and skipping them matters when the matrix is tiny
    (one call per completed transmission)."""
    txs = positions_array(tx_positions)
    rxs = positions_array(rx_positions)
    loss = batch_loss_db(link_budget.pathloss, txs, rxs, params.frequency_mhz)
    return _tx_base_dbm(link_budget, params) - loss


def above_sensitivity_matrix(
    link_budget: LinkBudget,
    tx_positions: Sequence[Position],
    rx_positions: Sequence[Position],
    params: LoRaParams,
) -> "np.ndarray":
    """Boolean reachability matrix (convenience over :func:`link_matrices`)."""
    return link_matrices(link_budget, tx_positions, rx_positions, params).above_sensitivity


#: Relative + absolute slack added to inverted max-range solutions so
#: float rounding in the ``10**x`` inversion can never exclude a node
#: that the exact margin test would admit.
_RANGE_SLACK_REL = 1e-9
_RANGE_SLACK_ABS = 1e-6


def range_at_floor_m(
    link_budget: LinkBudget, params: LoRaParams, floor_dbm: float
) -> Optional[float]:
    """Distance beyond which a frame sent with ``params`` always arrives
    below ``floor_dbm``, or None when the model's range cannot be bounded
    (no registered kernel).

    The frame's own power and frequency set the loss budget; the bound is
    conservative, padded so float rounding in the ``10**x`` inversion can
    never put a received power above the floor outside it.
    """
    if not supports_batch(link_budget):
        return None
    model = link_budget.pathloss
    _, range_kernel = _BATCH_KERNELS[type(model)]
    max_loss = _tx_base_dbm(link_budget, params) - floor_dbm
    radius = range_kernel(model, max_loss, params.frequency_mhz)
    if radius != radius or radius == float("inf"):  # NaN / unbounded
        return None
    if radius < 0.0:
        return 0.0
    return radius * (1.0 + _RANGE_SLACK_REL) + _RANGE_SLACK_ABS


def max_range_m(link_budget: LinkBudget, params: LoRaParams) -> Optional[float]:
    """Distance beyond which no node can clear sensitivity, or None when
    the model's range cannot be bounded (no registered kernel).

    The bound is conservative: candidates inside it are filtered by the
    exact batched margin test, so slack only costs a few extra candidate
    evaluations, never correctness.
    """
    return range_at_floor_m(link_budget, params, sensitivity_dbm(params))
