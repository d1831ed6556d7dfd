"""First-order upstream marching solver for steady water-surface profiles.

A profile starts at the dam (station 0) with the broad-crested-weir depth
and is marched upstream on the subcritical branch of the specific-energy
relation.  On steep channels the march is terminated by a hydraulic jump,
located where momentum balance against the uniform supercritical inflow
first becomes possible; upstream of the jump the depth is the normal depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hydraulics import (
    ChannelScenario,
    InsufficientEnergyError,
    conjugate_depth,
    critical_depth,
    depth_from_energy,
    friction_slope,
    normal_depth,
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


def step_upstream(h_i, scen: ChannelScenario, dx: float, branch: str = SUBCRITICAL):
    """One first-order energy step away from the dam.

    With x oriented upstream, dE/dx = J - s, so the discrete update is
    E_{i+1} = E_i + dx * (J(h_i) - s); the returned depth inverts E_{i+1}
    on the requested branch.

    Raises:
        InsufficientEnergyError: if the step crosses the critical energy
            (no depth exists on the branch), signalling the caller that the
            subcritical march cannot continue.
    """
    e_next = specific_energy(h_i, scen.Q, scen.b) + dx * (
        friction_slope(h_i, scen.Q, scen.b, scen.n) - scen.s
    )
    return depth_from_energy(float(e_next), scen.Q, scen.b, branch, h0=float(h_i))


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
