"""First-order upstream marching solver for steady water-surface profiles.

A profile starts at the dam (station 0) with the broad-crested-weir depth
and is marched upstream on the subcritical branch of the specific-energy
relation.  On steep channels the march is terminated by a hydraulic jump,
located where momentum balance against the uniform supercritical inflow
first becomes possible; upstream of the jump the depth is the normal depth.

:func:`solve_profile` marches one scenario with the scalar routines of
:mod:`.hydraulics`.  :func:`solve_profiles` marches a batch of scenarios
station by station as arrays (the direct-step method of Chow,
*Open-Channel Hydraulics*, 1959) and returns bit for bit what
:func:`solve_profile` returns or raises for each one.  For that it keeps the
scalar code's operand order, and it takes every fractional or cubic power
through libm's ``pow`` element by element, as Python and numpy float scalars
do: numpy's array ``**`` rounds differently on a few percent of inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hydraulics import (
    GRAVITY,
    ChannelScenario,
    ConvergenceError,
    InsufficientEnergyError,
    _dfriction_slope,
    _energy,
    _friction_slope,
    conjugate_depth,
    critical_depth,
    depth_from_energy,
    friction_slope,
    normal_depth,
    scenario_table,
    specific_energy,
    weir_depth,
)

SUBCRITICAL = "subcritical"
MIXED = "mixed"


@dataclass(frozen=True)
class GridSpec:
    """Uniform station grid along the channel, measured upstream from the dam."""

    dx: float = 10.0
    length: float = 5000.0

    def __post_init__(self):
        if not (np.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError("dx must be positive and finite")
        if not (np.isfinite(self.length) and self.length >= self.dx):
            raise ValueError("length must be at least one station spacing")
        steps = self.length / self.dx
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"length {self.length} is not a whole number of dx = {self.dx} steps")

    @property
    def n_points(self) -> int:
        return int(round(self.length / self.dx)) + 1

    @property
    def stations(self) -> np.ndarray:
        """Station coordinates x_i = i * dx, x increasing upstream."""
        return np.arange(self.n_points) * self.dx


@dataclass(eq=False)
class WaterProfile:
    """A solved steady profile: one depth per station, dam at index 0."""

    scenario: ChannelScenario
    grid: GridSpec
    depths: np.ndarray
    regime: str = SUBCRITICAL
    jump_index: int | None = field(default=None)

    def __post_init__(self):
        self.depths = np.asarray(self.depths, dtype=float)
        if self.depths.shape != (self.grid.n_points,):
            raise ValueError("depths length must match the station grid")
        if self.regime == MIXED and self.jump_index is None:
            raise ValueError("mixed-regime profile requires a jump index")


def classify_regime(scen: ChannelScenario) -> str:
    """"mixed" when the channel is steep (h_n < h_c), else "subcritical"."""
    if normal_depth(scen) < critical_depth(scen.Q, scen.b):
        return MIXED
    return SUBCRITICAL


def step_upstream(h_i, scen: ChannelScenario, dx: float):
    """One first-order energy step away from the dam.

    With x oriented upstream, dE/dx = J - s, so the discrete update is
    E_{i+1} = E_i + dx * (J(h_i) - s); the returned depth inverts E_{i+1}
    on the subcritical branch.

    Raises:
        InsufficientEnergyError: if the step crosses the critical energy
            (no depth exists on the branch), signalling the caller that the
            subcritical march cannot continue.
    """
    e_next = specific_energy(h_i, scen.Q, scen.b) + dx * (
        friction_slope(h_i, scen.Q, scen.b, scen.n) - scen.s
    )
    return depth_from_energy(float(e_next), scen.Q, scen.b, SUBCRITICAL, h0=float(h_i))


def solve_profile(scen: ChannelScenario, grid: GridSpec) -> WaterProfile:
    """March the full profile for one scenario.

    The dam fixes depths[0] = weir_depth(scen).  On a steep channel the
    subcritical march is checked station by station: the jump is placed at
    the first station whose marched depth has a conjugate at or above the
    normal depth (i.e. the uniform supercritical inflow carries enough
    momentum to support the backwater), and every station from there on is
    set to the normal depth.  A mild-slope march runs to the upstream end.

    Raises:
        InsufficientEnergyError: if a subcritical-regime march steps across
            the critical energy; callers generating datasets reject such
            scenarios instead of patching them.
    """
    regime = classify_regime(scen)
    n = grid.n_points
    depths = np.empty(n, dtype=float)
    depths[0] = weir_depth(scen)

    if regime == MIXED:
        h_n = normal_depth(scen)
        jump = None
        for i in range(1, n):
            try:
                h_sub = step_upstream(depths[i - 1], scen, grid.dx)
            except InsufficientEnergyError:
                # The step left the subcritical branch, so the conjugate
                # crossing happened inside this interval: jump here.
                jump = i
                break
            if conjugate_depth(h_sub, scen.Q, scen.b) >= h_n:
                jump = i
                break
            depths[i] = h_sub
        if jump is None:
            # The dam backwater drowns the whole reach; the realized profile
            # is subcritical even though the channel is steep.
            return WaterProfile(scen, grid, depths, SUBCRITICAL, None)
        depths[jump:] = h_n
        return WaterProfile(scen, grid, depths, MIXED, jump)

    for i in range(1, n):
        depths[i] = step_upstream(depths[i - 1], scen, grid.dx)
    return WaterProfile(scen, grid, depths, SUBCRITICAL, None)


# ---------------------------------------------------------------------- #
#  Batched march
# ---------------------------------------------------------------------- #

_OK, _NOT_FINITE, _INSUFFICIENT, _NO_CONVERGENCE, _OUT_OF_BRACKET, _STALLED = range(6)
_libm_pow_objects = np.frompyfunc(math.pow, 2, 1)


def _libm_pow(x: np.ndarray, p: float) -> np.ndarray:
    """``x ** p`` element by element through libm's ``pow``."""
    return _libm_pow_objects(x, p).astype(float)


def _friction_slopes(h, b, nnqq):
    """friction_slope(h, Q, b, n) with nnqq = n * n * Q * Q, R^(4/3) through libm."""
    return _friction_slope(h, b, nnqq, _libm_pow)


def _normal_depths(s, b, nnqq):
    """normal_depth per element: the depths and a status (_OK or the failure)."""
    lo0, hi0 = 1e-6, 1e4
    f_lo = _friction_slopes(np.full(s.size, lo0), b, nnqq) - s
    f_hi = _friction_slopes(np.full(s.size, hi0), b, nnqq) - s
    status = np.where((f_lo < 0.0) | (f_hi > 0.0), _OUT_OF_BRACKET, _OK)
    depth = np.empty(s.size)
    idx = np.flatnonzero(status == _OK)
    f_lo = f_lo[idx]
    lo, hi = np.full(idx.size, lo0), np.full(idx.size, hi0)
    x = np.full(idx.size, 0.5 * (lo0 + hi0))
    for _ in range(300):
        if not idx.size:
            break
        j = _friction_slopes(x, b[idx], nnqq[idx])
        fx = j - s[idx]
        root = fx == 0.0
        if root.any():
            depth[idx[root]] = x[root]
            idx, x, j, fx, lo, hi, f_lo = (v[~root] for v in (idx, x, j, fx, lo, hi, f_lo))
        same = (fx > 0.0) == (f_lo > 0.0)
        lo, f_lo, hi = np.where(same, x, lo), np.where(same, fx, f_lo), np.where(same, hi, x)
        dfx = _dfriction_slope(x, b[idx], j)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = x - fx / dfx
        x_new = np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
        done = np.abs(x_new - x) <= 1e-15 * x
        x = x_new
        if done.any():
            depth[idx[done]] = x[done]
            idx, x, lo, hi, f_lo = (v[~done] for v in (idx, x, lo, hi, f_lo))
    depth[idx] = x
    ok = np.flatnonzero(status == _OK)
    residual = np.abs(_friction_slopes(depth[ok], b[ok], nnqq[ok]) - s[ok])
    status[ok[residual > 1e-10 * s[ok]]] = _STALLED
    return depth, status


def _subcritical_depths(e, a, h_c, e_min, h0):
    """depth_from_energy(e, Q, b, "subcritical", h0) per element, a = Q^2/(2 g b^2).

    Returns the depths and a status per element (_OK or the failure).
    """
    depth = np.empty(e.size)
    status = np.where(
        ~np.isfinite(e),
        _NOT_FINITE,
        np.where(e < e_min * (1.0 - 1e-12), _INSUFFICIENT, _OK),
    )
    idx = np.flatnonzero(status == _OK)
    E, a, lo, h0 = e[idx], a[idx], h_c[idx], h0[idx]
    hi = np.maximum(E, lo)
    f_lo = lo + a / (lo * lo) - E
    x = np.where((lo < h0) & (h0 < hi), h0, 0.5 * (lo + hi))
    for _ in range(200):
        if not idx.size:
            break
        fx = x + a / (x * x) - E
        root = fx == 0.0
        if root.any():
            depth[idx[root]] = x[root]
            idx, x, fx, E, a, lo, hi, f_lo = (
                v[~root] for v in (idx, x, fx, E, a, lo, hi, f_lo)
            )
        same = (fx > 0.0) == (f_lo > 0.0)
        lo, f_lo, hi = np.where(same, x, lo), np.where(same, fx, f_lo), np.where(same, hi, x)
        dfx = 1.0 - 2.0 * a / _libm_pow(x, 3.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = x - fx / dfx
        x_new = np.where((dfx != 0.0) & (lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
        done = (np.abs(x_new - x) <= 5e-16 * x) | (
            hi - lo <= 5e-16 * np.minimum(np.abs(lo), np.abs(hi))
        )
        x = x_new
        if done.any():
            depth[idx[done]] = x[done]
            idx, x, E, a, lo, hi, f_lo = (v[~done] for v in (idx, x, E, a, lo, hi, f_lo))
    status[idx] = _NO_CONVERGENCE
    return depth, status


def weir_and_normal_depths(table: np.ndarray):
    """Per row of a :func:`~.hydraulics.scenario_table`: weir depth, normal
    depth (both bit for bit the scalar routines') and a status, nonzero where
    the normal-depth search failed."""
    s, b, n, z_d, q = table.T.copy()
    h_n, status = _normal_depths(s, b, n * n * q * q)
    head = _libm_pow(3.0 * math.sqrt(3.0) * q / (2.0 * math.sqrt(2.0 * GRAVITY) * b), 2.0 / 3.0)
    return z_d + head, h_n, status


def solve_profiles(scenarios, grid: GridSpec) -> list:
    """March a batch of scenarios at once; one outcome per scenario.

    Each outcome is exactly what :func:`solve_profile` returns for that
    scenario (a :class:`WaterProfile`, equal bit for bit) or the exception it
    raises (same class, same message), e.g. an
    :class:`~.hydraulics.InsufficientEnergyError` for a subcritical march
    that steps across the critical energy.  Nothing is raised per batch.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    table = scenario_table(scenarios)
    s, b, n, _, q = table.T.copy()
    nnqq = n * n * q * q
    qq = q * q
    c2 = 2.0 * GRAVITY * b * b
    a = qq / c2  # E(h) = h + a / h^2
    h_c = _libm_pow(2.0 * a, 1.0 / 3.0)
    e_min = 1.5 * h_c
    weir, h_n, status = weir_and_normal_depths(table)
    mixed = h_n < _libm_pow(qq / (GRAVITY * b * b), 1.0 / 3.0)

    outcomes: list = [None] * len(scenarios)
    for k in np.flatnonzero(status == _OUT_OF_BRACKET):
        outcomes[k] = ConvergenceError("normal depth outside the [1e-6, 1e4] m search bracket")
    for k in np.flatnonzero(status == _STALLED):
        outcomes[k] = ConvergenceError("normal depth iteration stalled")

    depths = np.empty((len(scenarios), grid.n_points))
    depths[:, 0] = weir
    jump = np.zeros(len(scenarios), dtype=int)
    live = np.flatnonzero(status == _OK)  # scenarios still marching
    h = depths[live, 0]
    for i in range(1, grid.n_points):
        if not live.size:
            break
        e_next = _energy(h, qq[live], c2[live]) + grid.dx * (
            _friction_slopes(h, b[live], nnqq[live]) - s[live]
        )
        h_new, err = _subcritical_depths(e_next, a[live], h_c[live], e_min[live], h)
        # On a steep channel the march stops at the jump: where it leaves the
        # subcritical branch, or where the marched depth's conjugate reaches h_n.
        steep = mixed[live]
        jumped = steep & (err == _INSUFFICIENT)
        test = np.flatnonzero(steep & (err == _OK))
        if test.size:
            y, qt, bt = h_new[test], q[live[test]], b[live[test]]
            fr2 = _libm_pow(qt / (bt * y), 2.0) / (GRAVITY * y)
            jumped[test] = 0.5 * y * (np.sqrt(1.0 + 8.0 * fr2) - 1.0) >= h_n[live[test]]
        jump[live[jumped]] = i
        for k in np.flatnonzero((err != _OK) & ~jumped):
            outcomes[live[k]] = _march_error(err[k], e_next[k], e_min[live[k]])
        keep = (err == _OK) & ~jumped
        live, h = live[keep], h_new[keep]
        depths[live, i] = h

    for k, scen in enumerate(scenarios):
        if outcomes[k] is not None:
            continue
        if jump[k]:
            depths[k, jump[k]:] = h_n[k]
            outcomes[k] = WaterProfile(scen, grid, depths[k].copy(), MIXED, int(jump[k]))
        else:
            outcomes[k] = WaterProfile(scen, grid, depths[k].copy(), SUBCRITICAL, None)
    return outcomes


def _march_error(status: int, energy: float, e_min: float) -> Exception:
    """The exception depth_from_energy raises for a failed march step."""
    if status == _INSUFFICIENT:
        return InsufficientEnergyError(
            f"specific energy {float(energy):.6g} below critical minimum {float(e_min):.6g}"
        )
    if status == _NOT_FINITE:
        return ValueError("specific energy must be positive and finite")
    return ConvergenceError("depth_from_energy did not converge")
