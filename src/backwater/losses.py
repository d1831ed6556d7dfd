"""Physics-based loss terms.

Each term compares predicted depths with targets through a hydraulic
quantity (specific energy, Froude number, water volume, boundary depth) or
penalizes the discrete energy-equation residual, and returns the loss, its
analytic gradient with respect to the predicted depths and how many
predictions it clamped.

Every term is an unvalidated kernel ``loss_X(pred, consts)`` on a stack of
k members: ``pred`` is (k, rows, outputs) and each constant is the
per-sample array that :func:`physics_constants` builds, checks and returns
once per training view, gathered at each member's minibatch rows into a
(k, rows, ·) array.  The constants are the targets' energy, Froude number,
volume or dam depth, the depth floor and the sub-expressions of the
hydraulic formulas that do not involve the prediction.  A kernel returns
per-member values (k,), the (k, rows, outputs) gradient and per-member
clamp counts (k,); each member's slice is bitwise what a stack of one
gives for it, since every mean is :func:`~.network.member_means`.
:data:`PHYSICS_TERMS` maps each strategy tag to its kernel; the energy,
Froude and residual kernels evaluate depths clamped to the floor, and the
volume and boundary kernels clamp nothing.
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
from .network import member_means

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

VTS_ONLY_STRATEGIES = ("vol", "bc", "pde")


def clamp_depths(pred: np.ndarray, floor=MIN_DEPTH) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Clamp a stack's depths below the floor: the depths, the clamped mask
    (None when nothing is clamped) and the clamp count of each member (the
    slices along the first axis).

    The floor may be a scalar or an array broadcastable against ``pred``
    (see :func:`depth_floor` for the per-sample physical floor).
    """
    low = pred < floor
    if not low.any():
        return pred, None, np.zeros(len(pred), dtype=int)
    return np.where(low, floor, pred), low, np.add.reduce(low.reshape(len(low), -1), axis=1)


def _zero_where(low: np.ndarray | None, grad: np.ndarray) -> np.ndarray:
    """The gradient with the clamped entries zeroed: the clamped loss is flat there."""
    return grad if low is None else np.where(low, 0.0, grad)


def depth_floor(Q, b) -> np.ndarray:
    """Per-sample floor below which physics terms stop evaluating depths."""
    return np.maximum(MIN_DEPTH, CRITICAL_FRACTION * critical_depth(Q, b))


def physics_constants(strategy: str, aux: dict, targets: np.ndarray) -> tuple:
    """The constants a strategy's loss kernel needs, one row per sample.

    Per-sample values are shaped to broadcast against ``targets``: (M, 1)
    for (M, n) targets, (M,) for (M,) targets.  Target-derived values are
    shaped like ``targets``, except the ``vol`` row sums and the ``bc`` dam
    depths, which are (M,).  Training builds this once per view and passes
    every array gathered at a minibatch's rows.

    Raises:
        ValueError: on a non-positive or non-finite target depth, a negative
            discharge or non-positive width, targets that are not whole
            profiles for ``vol``/``bc``/``pde``, too few stations for
            ``pde``, or a strategy without a physics term.
    """
    targets = np.asarray(targets, dtype=float)
    if strategy in VTS_ONLY_STRATEGIES and targets.ndim != 2:
        raise ValueError(f"strategy {strategy!r} needs whole-profile (2-D) targets")
    if strategy == "vol":
        return (np.sum(targets, axis=1),)
    if strategy == "bc":
        return (targets[:, 0],)

    def column(name):
        return np.asarray(aux[name], dtype=float).reshape((-1,) + (1,) * (targets.ndim - 1))

    q, b = column("Q"), column("b")
    floor = depth_floor(q, b)
    if strategy == "en":
        return floor, specific_energy(targets, q, b), q * q, 2.0 * GRAVITY * b * b, GRAVITY * b * b
    if strategy == "fr":
        return floor, froude(targets, q, b), q, b, -1.5 * q, b * math.sqrt(GRAVITY)
    if strategy == "pde":
        if targets.shape[1] < 3:
            raise ValueError("PDE residual needs at least 3 stations")
        _validated_depth(targets)
        n, s = column("n"), column("s")
        two_dx = np.full_like(q, 2.0 * float(aux["dx"]))
        return floor, q * q, 2.0 * GRAVITY * b * b, GRAVITY * b * b, n * n * q * q, b, s, two_dx
    raise ValueError(f"strategy {strategy!r} has no physics term")


def loss_en(pred, consts):
    """Mean squared mismatch of specific energy, d/d_pred, and the clamp counts.

    ``consts`` is ``physics_constants("en", ...)`` at the batch's rows.  The
    gradient chains through dE/dh = 1 − Q²/(g b² h³) at the clamped
    predicted depths and is zero for entries under the floor, where the
    clamped loss is constant.
    """
    floor, e_true, qq, g2bb, gbb = consts
    h_eff, low, counts = clamp_depths(pred, floor)
    diff = e_true - _energy(h_eff, qq, g2bb)
    grad = _zero_where(low, -2.0 * diff * _denergy(h_eff, qq, gbb) / _member_size(pred))
    return member_means(diff * diff), grad, counts


def loss_fr(pred, consts):
    """Mean squared mismatch of the Froude number, d/d_pred, and the clamp counts.

    ``consts`` is ``physics_constants("fr", ...)`` at the batch's rows.
    """
    floor, fr_true, q, b, m15q, bsg = consts
    h_eff, low, counts = clamp_depths(pred, floor)
    diff = fr_true - _froude(h_eff, q, b)
    grad = _zero_where(low, -2.0 * diff * _dfroude(h_eff, m15q, bsg) / _member_size(pred))
    return member_means(diff * diff), grad, counts


def loss_vol(pred, consts):
    """Water-volume mismatch per profile, |Σh − Σĥ|, averaged over the batch.

    ``consts`` is ``physics_constants("vol", ...)`` at the batch's rows: the
    targets' row sums.  The subgradient is ±1/B per element by the sign of
    the profile's volume difference; nothing is clamped.
    """
    (volume,) = consts
    diff = volume - np.add.reduce(pred, axis=2)
    grad = np.repeat(-np.sign(diff)[..., None], pred.shape[2], axis=2) / pred.shape[1]
    return member_means(np.abs(diff)), grad, np.zeros(len(pred), dtype=int)


def loss_bc(pred, consts):
    """Absolute depth error at the dam station only, averaged over the batch.

    ``consts`` is ``physics_constants("bc", ...)`` at the batch's rows: the
    targets' dam depths.  Nothing is clamped.
    """
    (dam,) = consts
    gap = pred[..., 0] - dam
    grad = np.zeros_like(pred)
    grad[..., 0] = np.sign(gap) / pred.shape[1]
    return member_means(np.abs(gap)), grad, np.zeros(len(pred), dtype=int)


def loss_pde(pred, consts):
    """Discrete energy-equation residual over interior stations.

    The residual at interior station i is
        r_i = (E(ĥ_{i+1}) − E(ĥ_{i−1})) / (2Δx) + s − J(ĥ_i),
    which vanishes (to scheme order) on profiles of the marching solver,
    whose x axis points upstream.  The loss is the mean of r_i² over
    interior stations and the batch; the clamp counts come back with it.
    ``consts`` is ``physics_constants("pde", ...)`` at the batch's rows.
    """
    floor, qq, g2bb, gbb, nnqq, b, s, two_dx = consts
    h_eff, low, counts = clamp_depths(pred, floor)
    energy = _energy(h_eff, qq, g2bb)
    slope = _friction_slope(h_eff, b, nnqq)
    r = (energy[..., 2:] - energy[..., :-2]) / two_dx + s - slope[..., 1:-1]

    de = _denergy(h_eff, qq, gbb)
    dj = _dfriction_slope(h_eff, b, slope)
    grad = np.zeros_like(pred)
    w = 2.0 * r / _member_size(r)
    grad[..., 2:] += w * de[..., 2:] / two_dx
    grad[..., :-2] -= w * de[..., :-2] / two_dx
    grad[..., 1:-1] -= w * dj[..., 1:-1]
    return member_means(r * r), _zero_where(low, grad), counts


def _member_size(a: np.ndarray) -> int:
    """Values per member of a stacked array."""
    return math.prod(a.shape[1:])


#: Each strategy's physics term: a kernel on its :func:`physics_constants`.
PHYSICS_TERMS = {"en": loss_en, "fr": loss_fr, "vol": loss_vol, "bc": loss_bc, "pde": loss_pde}
STRATEGIES = ("dd", *PHYSICS_TERMS)
