"""First-order upstream marching solver for steady water-surface profiles.

A profile starts at the dam (station 0) with the broad-crested-weir depth
and is marched upstream on the subcritical branch of the specific-energy
relation.  On steep channels the march is terminated by a hydraulic jump,
located where momentum balance against the uniform supercritical inflow
first becomes possible; upstream of the jump the depth is the normal depth.

:func:`solve_profile` marches one scenario on Python floats;
:func:`solve_profiles` marches a batch of scenarios station by station as
arrays (the direct-step method of Chow, *Open-Channel Hydraulics*, 1959)
and returns bit for bit what :func:`solve_profile` returns or raises for
each one.  Both call the same :mod:`.hydraulics` kernels, on parameters
checked once when each :class:`~.hydraulics.ChannelScenario` was built.
The batched march keeps the scalar root finders' operand order, and it
takes every fractional or cubic power through libm's ``pow`` element by
element (numpy's ``float_power``), as Python and numpy float scalars do:
numpy's array ``**`` rounds differently on a few percent of inputs.  Its
Newton searches iterate on whole arrays under a mask of the elements not
yet converged, so a station costs a fixed number of array operations per
iteration however many scenarios finish.

:func:`weir_and_normal_depths` gives a batch's dam and normal depths, which
the march and the ``int`` surrogate's reconstruction both start from.  The
march solves each corpus once and calls it directly;
:func:`boundary_depths` keeps its results per scenario object, for
reconstructions that revisit the same scenarios.
"""

from __future__ import annotations

import math
import numbers
import sys
import weakref
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .hydraulics import (
    GRAVITY,
    ChannelScenario,
    ConvergenceError,
    InsufficientEnergyError,
    _conjugate,
    _dfriction_slope,
    _energy,
    _friction_slope,
    _weir_depth,
    critical_depth,
    depth_from_energy,
    normal_depth,
    scenario_table,
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
        for name in ("dx", "length"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"grid {name} must be a real number, not {value!r}")
        if not 0.0 < self.dx <= sys.float_info.max:  # exact, so a huge integer fails too
            raise ValueError("dx must be positive and finite")
        if not self.dx <= self.length <= sys.float_info.max:
            raise ValueError("length must be finite and at least one station spacing")
        steps = self.length / self.dx
        if not math.isfinite(steps):
            raise ValueError(f"length / dx = {self.length} / {self.dx} is not finite")
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
    Q, b = scen.Q, scen.b
    e_next = _energy(h_i, Q * Q, 2.0 * GRAVITY * b * b) + dx * (
        _friction_slope(h_i, b, scen.n * scen.n * Q * Q) - scen.s
    )
    return depth_from_energy(e_next, Q, b, h0=h_i)


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
    n, dx = grid.n_points, grid.dx
    depths = np.empty(n, dtype=float)
    h = depths[0] = weir_depth(scen)

    if regime == MIXED:
        h_n = normal_depth(scen)
        for i in range(1, n):
            try:
                h = step_upstream(h, scen, dx)
            except InsufficientEnergyError:
                # The step left the subcritical branch, so the conjugate
                # crossing happened inside this interval: jump here.
                break
            if _conjugate(h, scen.Q, scen.b) >= h_n:
                break
            depths[i] = h
        else:
            # The dam backwater drowns the whole reach; the realized profile
            # is subcritical even though the channel is steep.
            return WaterProfile(scen, grid, depths, SUBCRITICAL, None)
        depths[i:] = h_n
        return WaterProfile(scen, grid, depths, MIXED, i)

    for i in range(1, n):
        h = depths[i] = step_upstream(h, scen, dx)
    return WaterProfile(scen, grid, depths, SUBCRITICAL, None)


# ---------------------------------------------------------------------- #
#  Batched march
# ---------------------------------------------------------------------- #

_OK, _NOT_FINITE, _INSUFFICIENT, _NO_CONVERGENCE, _OUT_OF_BRACKET, _STALLED = range(6)


def _libm_pow(x: np.ndarray, p: float) -> np.ndarray:
    """``x ** p`` for a 1-D array with the bits of libm's ``pow`` (``math.pow``).

    numpy's ``float_power`` loop calls ``pow`` on each element; its
    ``power`` (the array ``**``) has a SIMD path that rounds differently.
    Where any result is not finite the array goes through ``math.pow``
    instead, for its bits and its ``OverflowError`` or ``ValueError``.
    """
    with np.errstate(all="ignore"):
        y = np.float_power(x, p)
    if np.isfinite(y).all():
        return y
    return np.fromiter(map(math.pow, x.tolist(), repeat(p)), float, count=x.size)


def _friction_slopes(h, b, nnqq):
    """friction_slope(h, Q, b, n) with nnqq = n * n * Q * Q, R^(4/3) through libm."""
    return _friction_slope(h, b, nnqq, _libm_pow)


# The Newton searches below run on whole arrays.  An element that has
# converged keeps its depth through ``np.where`` while the others iterate,
# so each one takes exactly the scalar routine's steps.  The scalar bracket
# update replaces f(lo) only by an f(x) of the same sign, so the sign of
# f(lo) is fixed at the start.


def _normal_depths(s, b, nnqq):
    """normal_depth per element: the depths and a status (_OK or the failure)."""
    lo0, hi0 = 1e-6, 1e4
    f_lo = _friction_slopes(np.full(s.size, lo0), b, nnqq) - s
    f_hi = _friction_slopes(np.full(s.size, hi0), b, nnqq) - s
    status = np.where((f_lo < 0.0) | (f_hi > 0.0), _OUT_OF_BRACKET, _OK)
    idx = np.flatnonzero(status == _OK)
    whole = idx.size == s.size
    if not whole:
        s, b, nnqq, f_lo = s[idx], b[idx], nnqq[idx], f_lo[idx]
    lo_pos = f_lo > 0.0
    lo, hi = np.full(idx.size, lo0), np.full(idx.size, hi0)
    x = np.full(idx.size, 0.5 * (lo0 + hi0))
    active = np.ones(idx.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(300):
            j = _friction_slopes(x, b, nnqq)
            fx = j - s
            same = (fx > 0.0) == lo_pos
            lo, hi = np.where(same, x, lo), np.where(same, hi, x)
            x_new = x - fx / _dfriction_slope(x, b, j)
            x_new = np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
            step = active & (fx != 0.0)  # a root stays where it is
            active = step & ~(np.abs(x_new - x) <= 1e-15 * x)
            x = np.where(step, x_new, x)
            if not active.any():
                break
    residual = np.abs(_friction_slopes(x, b, nnqq) - s)
    status[idx[residual > 1e-10 * s]] = _STALLED
    if whole:
        return x, status
    depth = np.full(status.size, np.nan)  # no bracket, no depth
    depth[idx] = x
    return depth, status


def _subcritical_depths(e, a, h_c, e_min, h0):
    """depth_from_energy(e, Q, b, h0) per element, a = Q^2/(2 g b^2).

    Returns the depths and a status per element (_OK or the failure).
    """
    status = np.where(
        ~np.isfinite(e),
        _NOT_FINITE,
        np.where(e < e_min * (1.0 - 1e-12), _INSUFFICIENT, _OK),
    )
    idx = np.flatnonzero(status == _OK)
    whole = idx.size == e.size
    E, a, lo, h0 = (e, a, h_c, h0) if whole else (e[idx], a[idx], h_c[idx], h0[idx])
    hi = np.maximum(E, lo)
    lo_pos = lo + a / (lo * lo) - E > 0.0
    a2 = 2.0 * a
    x = np.where((lo < h0) & (h0 < hi), h0, 0.5 * (lo + hi))
    active = np.ones(idx.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            fx = x + a / (x * x) - E
            same = (fx > 0.0) == lo_pos
            lo, hi = np.where(same, x, lo), np.where(same, hi, x)
            dfx = 1.0 - a2 / _libm_pow(x, 3.0)
            # where dfx == 0 the step is not finite, and the finite bracket rejects it
            x_new = x - fx / dfx
            x_new = np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
            converged = (np.abs(x_new - x) <= 5e-16 * x) | (hi - lo <= 5e-16 * lo)
            step = active & (fx != 0.0)  # a root stays where it is
            active = step & ~converged
            x = np.where(step, x_new, x)
            if not active.any():
                break
        else:
            status[idx[active]] = _NO_CONVERGENCE
    if whole:
        return x, status
    depth = np.empty(e.size)
    depth[idx] = x
    return depth, status


def weir_and_normal_depths(table: np.ndarray):
    """Per row of a :func:`~.hydraulics.scenario_table`: weir depth, normal
    depth (both bit for bit the scalar routines') and a status, nonzero where
    the normal-depth search failed; the normal depth is NaN where the search
    found no bracket."""
    s, b, n, z_d, q = table.T.copy()
    h_n, status = _normal_depths(s, b, n * n * q * q)
    return _weir_depth(z_d, q, b, _libm_pow), h_n, status


#: Each scenario :func:`boundary_depths` has solved: its (weir, h_n, status).
#: An entry lives as long as the scenario object it was solved for.
_BOUNDARY_DEPTHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def boundary_depths(scenarios):
    """:func:`weir_and_normal_depths` of the scenarios' table, each scenario
    solved once.

    Returns ``(weir, h_n, status)`` exactly as
    ``weir_and_normal_depths(scenario_table(scenarios))`` does.  Scenarios
    not seen before are solved in one call to it; the results are kept per
    :class:`~.hydraulics.ChannelScenario` (frozen, so equal by value) for
    as long as the scenario object lives.  This pays only where the same
    scenarios are reconstructed again while they live, such as every
    ``int`` run of a sweep scored on one dataset's splits; a batch of new
    scenarios pays a dictionary lookup and store per scenario on top of the
    kernel.
    """
    scenarios = list(scenarios)
    rows = [_BOUNDARY_DEPTHS.get(scen) for scen in scenarios]
    new = [scen for scen, row in zip(scenarios, rows) if row is None]
    if new:
        # a scenario repeated within the batch is solved twice, to the same bits
        solved = weir_and_normal_depths(scenario_table(new))
        fresh = list(zip(*(column.tolist() for column in solved)))
        _BOUNDARY_DEPTHS.update(zip(new, fresh))
        if len(new) == len(scenarios):
            return solved
        fresh = iter(fresh)
        rows = [next(fresh) if row is None else row for row in rows]
    weir, h_n, status = np.array(rows, dtype=float).reshape(-1, 3).T
    return weir, h_n, status.astype(int)


def solve_profiles(scenarios, grid: GridSpec) -> list:
    """March a batch of scenarios at once; one outcome per scenario.

    Each outcome is exactly what :func:`solve_profile` returns for that
    scenario (a :class:`WaterProfile`, equal bit for bit) or the exception it
    raises (same class, same message), e.g. an
    :class:`~.hydraulics.InsufficientEnergyError` for a subcritical march
    that steps across the critical energy.  Nothing is raised per batch.
    The profiles' depths are rows of one (P, n_points) block, so the march
    holds each depth once; a kept subset of the profiles keeps the block.
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
    # the live scenarios' parameters, gathered once and shrunk with `live`
    live_columns = np.stack((qq, c2, b, nnqq, s, a, h_c, e_min, q, h_n))[:, live]
    steep = mixed[live]
    for i in range(1, grid.n_points):
        if not live.size:
            break
        qq_, c2_, b_, nnqq_, s_, a_, h_c_, e_min_, q_, h_n_ = live_columns
        e_next = _energy(h, qq_, c2_) + grid.dx * (_friction_slopes(h, b_, nnqq_) - s_)
        h_new, err = _subcritical_depths(e_next, a_, h_c_, e_min_, h)
        ok = err == _OK
        # On a steep channel the march stops at the jump: where it leaves the
        # subcritical branch, or where the marched depth's conjugate reaches h_n.
        jumped = steep & (err == _INSUFFICIENT)
        test = np.flatnonzero(steep & ok)
        if test.size:
            jumped[test] = _conjugate(h_new[test], q_[test], b_[test], _libm_pow) >= h_n_[test]
        keep = ok & ~jumped
        if not keep.all():
            jump[live[jumped]] = i
            for k in np.flatnonzero(~(ok | jumped)):
                outcomes[live[k]] = _march_error(err[k], e_next[k], e_min_[k])
            live, h_new = live[keep], h_new[keep]
            live_columns, steep = live_columns[:, keep], steep[keep]
        h = h_new
        depths[live, i] = h

    for k, scen in enumerate(scenarios):
        if outcomes[k] is not None:
            continue
        if jump[k]:
            depths[k, jump[k]:] = h_n[k]
            outcomes[k] = WaterProfile(scen, grid, depths[k], MIXED, int(jump[k]))
        else:
            outcomes[k] = WaterProfile(scen, grid, depths[k], SUBCRITICAL, None)
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
