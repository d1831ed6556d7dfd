"""Steady-flow hydraulics for rectangular open channels.

All quantities are SI: depths and widths in metres, discharge in m^3/s,
slopes dimensionless, Manning coefficient in s/m^(1/3).  Point relations
(specific energy, friction slope, Froude number, momentum function,
conjugate depth) accept scalars or numpy arrays; the root-finding routines
here (normal depth, depth from energy) take one scenario at a time.
:func:`backwater.solver.solve_profiles` carries array versions of them for
its batched march; those round exactly like the scalar routines because
every fractional or cubic power goes through libm's ``pow``, as a Python
float's ``**`` does.
:func:`scenario_table` is where scenarios become the (P, 5) parameter array
that the batched march, the corpus and the surrogates' inputs all read.

Each relation is written once, as a private kernel (``_energy``,
``_denergy``, ``_friction_slope``, ``_dfriction_slope``, ``_froude``,
``_dfroude``, ``_conjugate``, ``_weir_depth``) that takes the
sub-expressions not involving the depth precomputed, e.g.
``_energy(h, qq, g2bb)`` with ``qq = Q * Q`` and
``g2bb = 2.0 * GRAVITY * b * b``.  Those are the products the left-to-right
textbook expression forms anyway, so a kernel rounds exactly like it.  The
public functions check their inputs and call their kernel.  Everything else
calls the kernels on inputs checked once where they entered: the training
losses, both marches and :func:`normal_depth`, whose scenario was checked
when it was built.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

#: Gravitational acceleration [m/s^2], fixed for reproducibility.
GRAVITY = 9.81


class ConvergenceError(RuntimeError):
    """A root search failed to converge inside its bracket."""


class InsufficientEnergyError(ValueError):
    """Requested specific energy lies below the critical minimum.

    Raised by :func:`depth_from_energy` when no real depth exists for the
    requested energy; a marching solver can catch this to detect that a
    finite-difference step left the feasible branch.
    """


@dataclass(frozen=True)
class ChannelScenario:
    """A prismatic rectangular channel closed by a dam at its downstream end.

    Attributes:
        s: bed slope (positive, downhill in the flow direction).
        b: channel width [m].
        n: Manning roughness coefficient.
        z_d: dam (broad-crested weir) height above the bed [m].
        Q: steady discharge [m^3/s].
    """

    s: float
    b: float
    n: float
    z_d: float
    Q: float

    def __post_init__(self):
        for name in ("s", "b", "n", "z_d", "Q"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(
                    f"scenario parameter {name!r} must be positive and finite, "
                    f"got {value!r}"
                )


def scenario_table(scenarios) -> np.ndarray:
    """The scenarios as a (P, 5) float array in field order (s, b, n, z_d, Q),
    that of ``data.PARAM_NAMES``; ``ChannelScenario(*row)`` rebuilds one from
    a row of ``.tolist()``."""
    rows = [(sc.s, sc.b, sc.n, sc.z_d, sc.Q) for sc in scenarios]
    return np.array(rows, dtype=float).reshape(-1, 5)


def _validated_depth(h):
    """Coerce a depth (scalar or array) to float and require it positive."""
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)) or np.any(h <= 0.0):
        raise ValueError("flow depth must be positive and finite")
    return h


def _energy(h, qq, g2bb):
    """specific_energy with qq = Q * Q and g2bb = 2.0 * GRAVITY * b * b."""
    return h + qq / (g2bb * h * h)


def _denergy(h, qq, gbb):
    """dE/dh = 1 - Q^2 / (g b^2 h^3) with qq = Q * Q and gbb = GRAVITY * b * b."""
    return 1.0 - qq / (gbb * h ** 3)


def _friction_slope(h, b, nnqq, power=operator.pow):
    """friction_slope with nnqq = n * n * Q * Q; ``power`` takes R^(4/3)."""
    area = b * h
    radius = area / (b + 2.0 * h)
    return nnqq / (area * area * power(radius, 4.0 / 3.0))


def _dfriction_slope(h, b, j):
    """dJ/dh given the friction slope ``j`` at ``h``.

    Differentiating J = n^2 Q^2 (b + 2h)^(4/3) / (b^(10/3) h^(10/3)) gives
    dJ/dh = J * (8 / (3 (b + 2h)) - 10 / (3 h)).
    """
    return j * (8.0 / (3.0 * (b + 2.0 * h)) - 10.0 / (3.0 * h))


def _froude(h, Q, b):
    """froude without the depth check."""
    return Q / (b * h * np.sqrt(GRAVITY * h))


def _dfroude(h, m15q, bsg):
    """dFr/dh = -(3/2) Q / (b sqrt(g) h^(5/2)) with m15q = -1.5 * Q and
    bsg = b * math.sqrt(GRAVITY)."""
    return m15q / (bsg * h ** 2.5)


def _conjugate(y, Q, b, power=operator.pow):
    """conjugate_depth without the checks; ``power`` takes the square of Q / (b y)."""
    fr2 = power(Q / (b * y), 2.0) / (GRAVITY * y)
    return 0.5 * y * (np.sqrt(1.0 + 8.0 * fr2) - 1.0)


def _weir_depth(z_d, Q, b, power=operator.pow):
    """weir_depth of the parameters; ``power`` takes the 2/3 power of the head term."""
    return z_d + power(3.0 * math.sqrt(3.0) * Q / (2.0 * math.sqrt(2.0 * GRAVITY) * b), 2.0 / 3.0)


def specific_energy(h, Q, b):
    """Specific energy E = h + Q^2 / (2 g b^2 h^2) for a rectangular section."""
    return _energy(_validated_depth(h), Q * Q, 2.0 * GRAVITY * b * b)


def friction_slope(h, Q, b, n):
    """Manning friction slope J = n^2 Q^2 / (A^2 R^(4/3)).

    The wetted area is A = b*h and the hydraulic radius R = A / (b + 2h).
    """
    return _friction_slope(_validated_depth(h), b, n * n * Q * Q)


def froude(h, Q, b):
    """Froude number Fr = Q / (b h sqrt(g h)); < 1 subcritical, > 1 supercritical."""
    return _froude(_validated_depth(h), Q, b)


def critical_depth(Q, b):
    """Critical depth h_c = (Q^2 / (g b^2))^(1/3) of a rectangular section."""
    if np.any(np.asarray(Q) < 0.0) or np.any(np.asarray(b) <= 0.0):
        raise ValueError("discharge must be non-negative and width positive")
    return (Q * Q / (GRAVITY * b * b)) ** (1.0 / 3.0)


def momentum_function(h, Q, b):
    """Specific momentum per unit width, M = h^2/2 + Q^2 / (g b^2 h).

    Conserved across a hydraulic jump: the sequent depths of a jump satisfy
    M(h_upstream) = M(h_downstream).
    """
    h = _validated_depth(h)
    return h * h / 2.0 + Q * Q / (GRAVITY * b * b * h)


def conjugate_depth(y, Q, b):
    """Sequent (conjugate) depth of ``y`` across a hydraulic jump.

    Solves M(y') = M(y) for the depth on the other side of the jump:
    y' = (y/2) * (sqrt(1 + 8 Fr^2) - 1) with Fr the Froude number at ``y``.
    Applying the map twice returns the original depth (the relation is an
    involution), and the critical depth maps to itself.
    """
    y = _validated_depth(y)
    if np.any(np.asarray(Q) <= 0.0) or np.any(np.asarray(b) <= 0.0):
        raise ValueError("conjugate depth requires positive discharge and width")
    return _conjugate(y, Q, b)


def weir_depth(scen: ChannelScenario) -> float:
    """Flow depth just upstream of the broad-crested dam.

    h = z_d + (3 sqrt(3) Q / (2 sqrt(2 g) b))^(2/3); the head over the crest
    equals 1.5 h_c, the minimum-energy head of critical flow on the crest,
    so the depth is always subcritical.
    """
    return _weir_depth(scen.z_d, scen.Q, scen.b)


def depth_from_energy(E, Q, b, h0=None):
    """Invert the specific-energy relation on the subcritical (deep) branch.

    Args:
        E: target specific energy [m], must be at least the critical minimum.
        Q: discharge [m^3/s] (positive).
        b: channel width [m].
        h0: optional warm-start guess, e.g. the depth at the previous station
            of a marching solver.

    Returns:
        The depth h > h_c with specific_energy(h, Q, b) == E.

    Raises:
        InsufficientEnergyError: if E falls below the critical energy 1.5 h_c
            (a finite E <= 0 included).
        ValueError: on a non-finite E, or a discharge or width that is not
            positive.
        ConvergenceError: if the safeguarded Newton iteration stalls.
    """
    if not math.isfinite(E):
        raise ValueError("specific energy must be positive and finite")
    if Q <= 0.0 or b <= 0.0:
        raise ValueError("discharge and width must be positive")

    a = Q * Q / (2.0 * GRAVITY * b * b)  # E(h) = h + a / h^2
    h_c = (2.0 * a) ** (1.0 / 3.0)
    e_min = 1.5 * h_c
    if E < e_min * (1.0 - 1e-12):
        raise InsufficientEnergyError(
            f"specific energy {E:.6g} below critical minimum {e_min:.6g}"
        )

    lo, hi = h_c, max(E, h_c)  # f(lo) <= 0 <= f(hi)

    def f(h):
        return h + a / (h * h) - E

    f_lo = f(lo)
    x = h0 if (h0 is not None and lo < h0 < hi) else 0.5 * (lo + hi)
    for _ in range(200):
        fx = f(x)
        if fx == 0.0:
            return x
        # Maintain the bracket around the sign change.
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
        else:
            hi = x
        dfx = 1.0 - 2.0 * a / (x ** 3)
        step_ok = dfx != 0.0
        if step_ok:
            x_new = x - fx / dfx
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 5e-16 * x or (hi - lo) <= 5e-16 * lo:  # 0 < lo <= hi
            return x_new
        x = x_new
    raise ConvergenceError("depth_from_energy did not converge")


def normal_depth(scen: ChannelScenario) -> float:
    """Uniform-flow depth h_n solving friction_slope(h_n) = bed slope.

    The Manning friction slope is strictly decreasing in depth, so the root
    is unique; it is located by bisection on [1e-6, 1e4] m with Newton
    acceleration and satisfies |J(h_n) - s| <= 1e-10 * s.

    Raises:
        ConvergenceError: if no root lies inside the search bracket.
    """
    s, b = scen.s, scen.b
    nnqq = scen.n * scen.n * scen.Q * scen.Q
    lo, hi = 1e-6, 1e4

    def f(h):
        return _friction_slope(h, b, nnqq) - s

    f_lo = f(lo)
    if f_lo < 0.0 or f(hi) > 0.0:
        raise ConvergenceError(
            "normal depth outside the [1e-6, 1e4] m search bracket"
        )

    x = 0.5 * (lo + hi)
    for _ in range(300):
        j = _friction_slope(x, b, nnqq)
        fx = j - s
        if fx == 0.0:
            break
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
        else:
            hi = x
        x_new = x - fx / _dfriction_slope(x, b, j)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * x:
            x = x_new
            break
        x = x_new

    if abs(f(x)) > 1e-10 * s:
        raise ConvergenceError("normal depth iteration stalled")
    return float(x)
