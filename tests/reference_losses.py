"""Oracle physics losses written with the validated ``hydraulics`` point functions.

These are the energy, Froude and residual terms on per-batch aux dicts, each
quantity computed through the public, depth-checking functions and each
depth derivative written out as its textbook formula, and the volume and
boundary terms on the batch's targets.  The library's kernels on
:func:`backwater.losses.physics_constants` must match them bit for bit, and so
must a training run that uses the kernels.
"""

import math

import numpy as np

from backwater.hydraulics import (
    GRAVITY,
    critical_depth,
    friction_slope,
    froude,
    specific_energy,
)
from backwater.losses import CRITICAL_FRACTION, MIN_DEPTH


def denergy_dh(h, q, b):
    """dE/dh of E = h + Q^2 / (2 g b^2 h^2)."""
    return 1.0 - q * q / (GRAVITY * b * b * h ** 3)


def dfroude_dh(h, q, b):
    """dFr/dh of Fr = Q / (b h sqrt(g h))."""
    return -1.5 * q / (b * math.sqrt(GRAVITY) * h ** 2.5)


def dfriction_slope_dh(h, b, slope):
    """dJ/dh of J = n^2 Q^2 (b + 2h)^(4/3) / (b h)^(10/3), given J at h."""
    return slope * (8.0 / (3.0 * (b + 2.0 * h)) - 10.0 / (3.0 * h))


def per_sample(aux, name, pred):
    v = np.asarray(aux[name], dtype=float)
    return v[:, None] if pred.ndim == 2 else v


def floor_and_clamp(aux, pred):
    q, b = per_sample(aux, "Q", pred), per_sample(aux, "b", pred)
    floor = np.maximum(MIN_DEPTH, CRITICAL_FRACTION * critical_depth(q, b))
    low = pred < floor
    return q, b, low, np.where(low, floor, pred)


def loss_en(pred, true, aux):
    q, b, low, h = floor_and_clamp(aux, pred)
    diff = specific_energy(true, q, b) - specific_energy(h, q, b)
    grad = np.where(low, 0.0, -2.0 * diff * denergy_dh(h, q, b) / pred.size)
    return float(np.mean(diff * diff)), grad, int(low.sum())


def loss_fr(pred, true, aux):
    q, b, low, h = floor_and_clamp(aux, pred)
    diff = froude(true, q, b) - froude(h, q, b)
    grad = np.where(low, 0.0, -2.0 * diff * dfroude_dh(h, q, b) / pred.size)
    return float(np.mean(diff * diff)), grad, int(low.sum())


def loss_pde(pred, aux):
    q, b, low, h = floor_and_clamp(aux, pred)
    n = per_sample(aux, "n", pred)
    s = per_sample(aux, "s", pred)
    dx = float(aux["dx"])
    energy = specific_energy(h, q, b)
    slope = friction_slope(h, q, b, n)
    r = (energy[:, 2:] - energy[:, :-2]) / (2.0 * dx) + s - slope[:, 1:-1]
    batch, interior = r.shape
    de = denergy_dh(h, q, b)
    dj = dfriction_slope_dh(h, b, slope)
    grad = np.zeros_like(pred)
    w = 2.0 * r / (batch * interior)
    grad[:, 2:] += w * de[:, 2:] / (2.0 * dx)
    grad[:, :-2] -= w * de[:, :-2] / (2.0 * dx)
    grad[:, 1:-1] -= w * dj[:, 1:-1]
    grad[low] = 0.0
    return float(np.mean(r * r)), grad, int(low.sum())


def loss_vol(pred, true):
    pred, true = np.atleast_2d(np.asarray(pred, dtype=float)), np.atleast_2d(np.asarray(true, dtype=float))
    batch = pred.shape[0]
    diff = np.sum(true, axis=1) - np.sum(pred, axis=1)
    grad = np.repeat(-np.sign(diff)[:, None], pred.shape[1], axis=1) / batch
    return float(np.mean(np.abs(diff))), grad, 0


def loss_bc(pred, true):
    pred, true = np.atleast_2d(np.asarray(pred, dtype=float)), np.atleast_2d(np.asarray(true, dtype=float))
    batch = pred.shape[0]
    gap = pred[:, 0] - true[:, 0]
    grad = np.zeros_like(pred)
    grad[:, 0] = np.sign(gap) / batch
    return float(np.mean(np.abs(gap))), grad, 0


def physics_term(strategy, pred, true, aux):
    """The oracle for one strategy's physics term: (value, gradient, clamp count)."""
    if strategy == "pde":
        return loss_pde(pred, aux)
    if strategy in ("vol", "bc"):
        return {"vol": loss_vol, "bc": loss_bc}[strategy](pred, true)
    return {"en": loss_en, "fr": loss_fr}[strategy](pred, true, aux)
