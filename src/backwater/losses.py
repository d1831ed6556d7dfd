"""Physics-based loss terms.

Each term compares predicted depths with targets through a hydraulic
quantity (specific energy, Froude number, water volume, boundary depth) or
penalizes the discrete energy-equation residual, and returns both the scalar
loss and its analytic gradient with respect to the predicted depths.

The energy, Froude and residual terms (``loss_en``, ``loss_fr``,
``loss_pde``) are unvalidated kernels on the per-sample constants that
:func:`physics_constants` builds, checks and returns once per training view:
the depth floor, the targets' energy or Froude number and the sub-expressions
of the hydraulic formulas that do not involve the prediction.  A minibatch
passes those arrays gathered at its rows.  The kernels evaluate depths
clamped to the floor and return a third value: how many predictions they
clamped.  The volume and boundary terms take the targets directly.
"""

from __future__ import annotations

import math

import numpy as np

from .hydraulics import (
    GRAVITY,
    _denergy,
    _dfriction_slope,
    _dfroude,
    _energy,
    _friction_slope,
    _froude,
    _validated_depth,
    critical_depth,
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


def depth_floor(Q, b) -> np.ndarray:
    """Per-sample floor below which physics terms stop evaluating depths."""
    return np.maximum(MIN_DEPTH, CRITICAL_FRACTION * critical_depth(Q, b))


def physics_constants(strategy: str, aux: dict, targets: np.ndarray) -> tuple:
    """The constants a strategy's loss kernel needs, one row per sample.

    Per-sample values are shaped to broadcast against ``targets``: (M, 1)
    for (M, n) targets, (M,) for (M,) targets.  Target-derived values are
    shaped like ``targets``.  Training builds this once per view and passes
    every array gathered at a minibatch's rows; ``vol`` and ``bc`` need none.

    Raises:
        ValueError: on a non-positive or non-finite target depth, a negative
            discharge or non-positive width, too few stations for ``pde``, or
            an unknown strategy.
    """
    if strategy in ("vol", "bc"):
        return ()
    targets = np.asarray(targets, dtype=float)

    def column(name):
        return np.asarray(aux[name], dtype=float).reshape((-1,) + (1,) * (targets.ndim - 1))

    q, b = column("Q"), column("b")
    floor = depth_floor(q, b)
    if strategy == "en":
        return floor, specific_energy(targets, q, b), q * q, 2.0 * GRAVITY * b * b, GRAVITY * b * b
    if strategy == "fr":
        return floor, froude(targets, q, b), q, b, -1.5 * q, b * math.sqrt(GRAVITY)
    if strategy == "pde":
        if targets.ndim != 2 or targets.shape[1] < 3:
            raise ValueError("PDE residual needs at least 3 stations")
        _validated_depth(targets)
        n, s = column("n"), column("s")
        two_dx = np.full_like(q, 2.0 * float(aux["dx"]))
        return floor, q * q, 2.0 * GRAVITY * b * b, GRAVITY * b * b, n * n * q * q, b, s, two_dx
    raise ValueError(f"strategy {strategy!r} has no physics term")


def loss_en(pred, consts):
    """Mean squared mismatch of specific energy, d/d_pred, and the clamp count.

    ``consts`` is ``physics_constants("en", ...)`` at the batch's rows.  The
    gradient chains through dE/dh = 1 − Q²/(g b² h³) at the clamped
    predicted depths and is zero for entries under the floor, where the
    clamped loss is constant.
    """
    floor, e_true, qq, g2bb, gbb = consts
    h_eff, n_clamped = clamp_depths(pred, floor)
    diff = e_true - _energy(h_eff, qq, g2bb)
    value = float(np.mean(diff * diff))
    grad = np.where(pred < floor, 0.0, -2.0 * diff * _denergy(h_eff, qq, gbb) / pred.size)
    return value, grad, n_clamped


def loss_fr(pred, consts):
    """Mean squared mismatch of the Froude number, d/d_pred, and the clamp count.

    ``consts`` is ``physics_constants("fr", ...)`` at the batch's rows.
    """
    floor, fr_true, q, b, m15q, bsg = consts
    h_eff, n_clamped = clamp_depths(pred, floor)
    diff = fr_true - _froude(h_eff, q, b)
    value = float(np.mean(diff * diff))
    grad = np.where(pred < floor, 0.0, -2.0 * diff * _dfroude(h_eff, m15q, bsg) / pred.size)
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


def loss_pde(pred, consts):
    """Discrete energy-equation residual over interior stations.

    The residual at interior station i is
        r_i = (E(ĥ_{i+1}) − E(ĥ_{i−1})) / (2Δx) + s − J(ĥ_i),
    which vanishes (to scheme order) on profiles of the marching solver,
    whose x axis points upstream.  The loss is the mean of r_i² over
    interior stations and the batch; the clamp count comes back with it.
    ``consts`` is ``physics_constants("pde", ...)`` at the batch's rows.
    """
    floor, qq, g2bb, gbb, nnqq, b, s, two_dx = consts
    h_eff, n_clamped = clamp_depths(pred, floor)
    energy = _energy(h_eff, qq, g2bb)
    slope = _friction_slope(h_eff, b, nnqq)
    r = (energy[:, 2:] - energy[:, :-2]) / two_dx + s - slope[:, 1:-1]

    batch, interior = r.shape
    de = _denergy(h_eff, qq, gbb)
    dj = _dfriction_slope(h_eff, b, slope)
    grad = np.zeros_like(pred)
    value = float(np.mean(r * r))
    w = 2.0 * r / (batch * interior)
    grad[:, 2:] += w * de[:, 2:] / two_dx
    grad[:, :-2] -= w * de[:, :-2] / two_dx
    grad[:, 1:-1] -= w * dj[:, 1:-1]
    grad[pred < floor] = 0.0
    return value, grad, n_clamped
