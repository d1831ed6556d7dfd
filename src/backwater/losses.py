"""Physics-based loss terms.

Each term compares predicted depths with targets through a hydraulic
quantity (specific energy, Froude number, water volume, boundary depth) or
penalizes the discrete energy-equation residual, and returns both the scalar
loss and its analytic gradient with respect to the predicted depths.
Pointwise predictions (shape (B,)) carry per-sample aux values; whole-profile
predictions (shape (B, N)) carry per-profile aux values.

The energy, Froude and residual terms evaluate depths clamped to a
per-sample floor and return a third value: how many predictions they clamped.
"""

from __future__ import annotations

import numpy as np

from .hydraulics import (
    critical_depth,
    denergy_dh,
    dfriction_slope_dh,
    dfroude_dh,
    friction_slope,
    froude,
    specific_energy,
)

#: Depths below this floor are clamped before evaluating E, Fr, or J, so a
#: half-trained network emitting non-positive outputs cannot abort a run.
MIN_DEPTH = 1e-3

#: Predictions below this fraction of the critical depth are treated as
#: unphysical by the energy/Froude/residual terms: the quantity is evaluated
#: at the floor and the gradient there is zero (the exact gradient of the
#: clamped loss, which is flat below the floor).  E, Fr, and J all diverge
#: as h -> 0, so without the floor a single wild early-training output puts
#: a ~1e13-scale gradient into Adam's second moment and freezes those
#: coordinates for tens of thousands of steps.  A quarter of h_c sits well
#: under every physical depth, supercritical normal depths included.
CRITICAL_FRACTION = 0.25

STRATEGIES = ("dd", "en", "fr", "vol", "bc", "pde")
VTS_ONLY_STRATEGIES = ("vol", "bc", "pde")


def clamp_depths(pred: np.ndarray, floor=MIN_DEPTH) -> tuple[np.ndarray, int]:
    """Clamp depths below the floor, returning the count of clamped entries.

    The floor may be a scalar or an array broadcastable against ``pred``
    (see :func:`depth_floor` for the per-sample physical floor).
    """
    pred = np.asarray(pred, dtype=float)
    mask = pred < floor
    if not mask.any():
        return pred, 0
    return np.where(mask, floor, pred), int(mask.sum())


def _per_sample(aux: dict, name: str, pred: np.ndarray) -> np.ndarray:
    """Aux column broadcast against pointwise or whole-profile predictions."""
    v = np.asarray(aux[name], dtype=float)
    return v[:, None] if pred.ndim == 2 else v


def depth_floor(aux: dict, pred: np.ndarray) -> np.ndarray:
    """Per-sample floor below which physics terms stop evaluating depths."""
    q, b = _per_sample(aux, "Q", pred), _per_sample(aux, "b", pred)
    return np.maximum(MIN_DEPTH, CRITICAL_FRACTION * critical_depth(q, b))


def loss_en(pred, true, aux):
    """Mean squared mismatch of specific energy, d/d_pred, and the clamp count.

    The gradient chains through dE/dh = 1 − Q²/(g b² h³) at the clamped
    predicted depths and is zero for entries under the floor, where the
    clamped loss is constant.
    """
    pred, true = np.asarray(pred, dtype=float), np.asarray(true, dtype=float)
    q, b = _per_sample(aux, "Q", pred), _per_sample(aux, "b", pred)
    floor = depth_floor(aux, pred)
    h_eff, n_clamped = clamp_depths(pred, floor)
    diff = specific_energy(true, q, b) - specific_energy(h_eff, q, b)
    value = float(np.mean(diff * diff))
    grad = np.where(pred < floor, 0.0, -2.0 * diff * denergy_dh(h_eff, q, b) / pred.size)
    return value, grad, n_clamped


def loss_fr(pred, true, aux):
    """Mean squared mismatch of the Froude number, d/d_pred, and the clamp count."""
    pred, true = np.asarray(pred, dtype=float), np.asarray(true, dtype=float)
    q, b = _per_sample(aux, "Q", pred), _per_sample(aux, "b", pred)
    floor = depth_floor(aux, pred)
    h_eff, n_clamped = clamp_depths(pred, floor)
    diff = froude(true, q, b) - froude(h_eff, q, b)
    value = float(np.mean(diff * diff))
    grad = np.where(pred < floor, 0.0, -2.0 * diff * dfroude_dh(h_eff, q, b) / pred.size)
    return value, grad, n_clamped


def loss_vol(pred, true):
    """Water-volume mismatch per profile, |Σh − Σĥ|, averaged over the batch.

    The subgradient is ±1/B per element by the sign of the profile's volume
    difference.
    """
    pred, true = np.atleast_2d(np.asarray(pred, dtype=float)), np.atleast_2d(np.asarray(true, dtype=float))
    if pred.shape != true.shape:
        raise ValueError("pred and true shapes differ")
    batch = pred.shape[0]
    diff = np.sum(true, axis=1) - np.sum(pred, axis=1)
    value = float(np.mean(np.abs(diff)))
    grad = np.repeat(-np.sign(diff)[:, None], pred.shape[1], axis=1) / batch
    return value, grad


def loss_bc(pred, true):
    """Absolute depth error at the dam station only, averaged over the batch."""
    pred, true = np.atleast_2d(np.asarray(pred, dtype=float)), np.atleast_2d(np.asarray(true, dtype=float))
    if pred.shape != true.shape:
        raise ValueError("pred and true shapes differ")
    batch = pred.shape[0]
    gap = pred[:, 0] - true[:, 0]
    value = float(np.mean(np.abs(gap)))
    grad = np.zeros_like(pred)
    grad[:, 0] = np.sign(gap) / batch
    return value, grad


def loss_pde(pred, aux):
    """Discrete energy-equation residual over interior stations.

    The residual at interior station i is
        r_i = (E(ĥ_{i+1}) − E(ĥ_{i−1})) / (2Δx) + s − J(ĥ_i),
    which vanishes (to scheme order) on profiles of the marching solver,
    whose x axis points upstream.  The loss is the mean of r_i² over
    interior stations and the batch; the clamp count comes back with it.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    if pred.shape[1] < 3:
        raise ValueError("PDE residual needs at least 3 stations")
    q = np.asarray(aux["Q"], dtype=float)[:, None]
    b = np.asarray(aux["b"], dtype=float)[:, None]
    n = np.asarray(aux["n"], dtype=float)[:, None]
    s = np.asarray(aux["s"], dtype=float)[:, None]
    dx = float(aux["dx"])

    floor = depth_floor(aux, pred)
    h_eff, n_clamped = clamp_depths(pred, floor)
    energy = specific_energy(h_eff, q, b)
    slope = friction_slope(h_eff, q, b, n)
    r = (energy[:, 2:] - energy[:, :-2]) / (2.0 * dx) + s - slope[:, 1:-1]

    batch, interior = r.shape
    de = denergy_dh(h_eff, q, b)
    dj = dfriction_slope_dh(h_eff, q, b, n)
    grad = np.zeros_like(pred)
    value = float(np.mean(r * r))
    w = 2.0 * r / (batch * interior)
    grad[:, 2:] += w * de[:, 2:] / (2.0 * dx)
    grad[:, :-2] -= w * de[:, :-2] / (2.0 * dx)
    grad[:, 1:-1] -= w * dj[:, 1:-1]
    grad[pred < floor] = 0.0
    return value, grad, n_clamped
