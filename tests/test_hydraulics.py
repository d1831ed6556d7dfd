"""Unit tests for the rectangular-channel hydraulics relations."""

import math

import numpy as np
import pytest

from backwater.hydraulics import (
    GRAVITY,
    ChannelScenario,
    ConvergenceError,
    InsufficientEnergyError,
    _denergy,
    _dfriction_slope,
    _dfroude,
    conjugate_depth,
    critical_depth,
    depth_from_energy,
    friction_slope,
    froude,
    momentum_function,
    normal_depth,
    specific_energy,
    weir_depth,
)


def discharge_for_froude(fr, h, b):
    """Discharge giving Froude number `fr` at depth `h`: Q = fr * b * h * sqrt(g h)."""
    return fr * b * h * math.sqrt(GRAVITY * h)


# ---------------------------------------------------------------- #
#  Point relations
# ---------------------------------------------------------------- #


def test_specific_energy_at_half_froude():
    # With Fr = 0.5 the velocity head is h * Fr^2 / 2 = h / 8, so E = h * 9/8.
    Q = discharge_for_froude(0.5, 2.0, 10.0)
    assert specific_energy(2.0, Q, 10.0) == pytest.approx(2.25, abs=1e-12)


def test_specific_energy_still_water_is_depth():
    assert specific_energy(1.0, 0.0, 10.0) == 1.0


def test_specific_energy_rejects_bad_depth():
    with pytest.raises(ValueError):
        specific_energy(0.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        specific_energy(-1.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        specific_energy(float("nan"), 10.0, 10.0)


def test_friction_slope_frozen_value():
    # n^2 Q^2 / ((b h)^2 R^(4/3)), R = 20/14 m: evaluated at 50-digit precision.
    assert friction_slope(2.0, 44.29, 10.0, 0.02) == pytest.approx(
        1.219201291157285e-3, rel=1e-12
    )


def test_friction_slope_still_water_is_zero():
    assert friction_slope(2.0, 0.0, 10.0, 0.02) == 0.0


def test_froude_half():
    Q = discharge_for_froude(0.5, 2.0, 10.0)
    assert froude(2.0, Q, 10.0) == pytest.approx(0.5, rel=1e-12)
    assert froude(2.0, 0.0, 10.0) == 0.0


def test_critical_depth_frozen_value():
    # (Q^2 / (g b^2))^(1/3) with Q = b = 10: evaluated at 50-digit precision.
    assert critical_depth(10.0, 10.0) == pytest.approx(0.4671363512679737, rel=1e-12)


def test_critical_depth_has_unit_froude():
    rng = np.random.default_rng(7)
    for _ in range(200):
        Q = rng.uniform(1.0, 500.0)
        b = rng.uniform(1.0, 80.0)
        assert froude(critical_depth(Q, b), Q, b) == pytest.approx(1.0, rel=1e-12)


def test_momentum_function_frozen_value():
    # h^2/2 + Q^2/(g b^2 h) = 0.5 + 100/981 at h=1, Q=10, b=10.
    assert momentum_function(1.0, 10.0, 10.0) == pytest.approx(
        0.5 + 100.0 / 981.0, rel=1e-14
    )


# ---------------------------------------------------------------- #
#  Conjugate depths
# ---------------------------------------------------------------- #


def test_conjugate_depth_at_half_froude():
    # y' = (y/2)(sqrt(1 + 8 * 0.25) - 1) = sqrt(3) - 1 for y = 2.
    Q = discharge_for_froude(0.5, 2.0, 10.0)
    assert conjugate_depth(2.0, Q, 10.0) == pytest.approx(
        math.sqrt(3.0) - 1.0, rel=1e-12
    )


def test_conjugate_of_critical_is_critical():
    hc = critical_depth(120.0, 25.0)
    assert conjugate_depth(hc, 120.0, 25.0) == pytest.approx(hc, rel=1e-12)


def test_conjugate_preserves_momentum_and_is_involution():
    rng = np.random.default_rng(42)
    for _ in range(500):
        Q = rng.uniform(1.0, 400.0)
        b = rng.uniform(2.0, 60.0)
        y = rng.uniform(0.05, 12.0)
        conj = conjugate_depth(y, Q, b)
        assert momentum_function(conj, Q, b) == pytest.approx(
            momentum_function(y, Q, b), rel=1e-9
        )
        assert conjugate_depth(conj, Q, b) == pytest.approx(y, rel=1e-9)


def test_conjugate_depth_requires_flow():
    with pytest.raises(ValueError):
        conjugate_depth(1.0, 0.0, 10.0)


# ---------------------------------------------------------------- #
#  Boundary condition and normal depth
# ---------------------------------------------------------------- #


def test_weir_depth_frozen_value():
    scen = ChannelScenario(s=1e-3, b=20.0, n=0.02, z_d=3.0, Q=100.0)
    assert weir_depth(scen) == pytest.approx(5.048872465907387, rel=1e-12)


def test_weir_head_is_1p5_critical_depth():
    # The crest head reduces algebraically to 1.5 h_c.
    rng = np.random.default_rng(3)
    for _ in range(100):
        scen = ChannelScenario(
            s=1e-3,
            b=rng.uniform(2.0, 60.0),
            n=0.02,
            z_d=rng.uniform(0.5, 6.0),
            Q=rng.uniform(1.0, 400.0),
        )
        head = weir_depth(scen) - scen.z_d
        assert head == pytest.approx(1.5 * critical_depth(scen.Q, scen.b), rel=1e-12)


def test_weir_depth_vanishing_flow_limit():
    scen = ChannelScenario(s=1e-3, b=20.0, n=0.02, z_d=3.0, Q=1e-9)
    assert weir_depth(scen) == pytest.approx(3.0, abs=1e-6)


def test_normal_depth_residual_and_scan_oracle():
    scen = ChannelScenario(s=1e-3, b=10.0, n=0.02, z_d=3.0, Q=44.29)
    hn = normal_depth(scen)
    assert abs(friction_slope(hn, scen.Q, scen.b, scen.n) - scen.s) <= 1e-10 * scen.s
    # Independent oracle: brute-force sign-change scan of J(h) - s on a log grid.
    grid = np.logspace(-6, 4, 2_000_001)
    sign = friction_slope(grid, scen.Q, scen.b, scen.n) - scen.s
    k = int(np.nonzero(sign[:-1] * sign[1:] <= 0.0)[0][0])
    assert grid[k] <= hn <= grid[k + 1]


def test_normal_depth_monotone_in_discharge():
    depths = [
        normal_depth(ChannelScenario(s=2e-3, b=15.0, n=0.025, z_d=2.0, Q=q))
        for q in (10.0, 50.0, 200.0)
    ]
    assert depths[0] < depths[1] < depths[2]


def test_normal_depth_unreachable_slope():
    with pytest.raises(ConvergenceError):
        normal_depth(ChannelScenario(s=1e-14, b=10.0, n=0.02, z_d=3.0, Q=44.29))


# ---------------------------------------------------------------- #
#  Energy inversion
# ---------------------------------------------------------------- #


def test_depth_from_energy_recovers_subcritical_depth():
    Q = discharge_for_froude(0.5, 2.0, 10.0)
    assert depth_from_energy(2.25, Q, 10.0) == pytest.approx(2.0, rel=1e-12)


def test_depth_from_energy_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(500):
        Q = rng.uniform(1.0, 400.0)
        b = rng.uniform(2.0, 60.0)
        h = rng.uniform(0.02, 12.0)
        if h <= critical_depth(Q, b):
            continue  # the supercritical root is not inverted
        back = depth_from_energy(specific_energy(h, Q, b), Q, b)
        assert back == pytest.approx(h, rel=1e-10)


def test_depth_from_energy_below_minimum_raises():
    Q, b = 100.0, 20.0
    e_min = 1.5 * critical_depth(Q, b)
    # a finite energy at or below zero lies below the critical minimum too
    for energy in (0.99 * e_min, 0.0, -1.0):
        with pytest.raises(InsufficientEnergyError):
            depth_from_energy(energy, Q, b)
    for energy in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            depth_from_energy(energy, Q, b)


def test_depth_from_energy_requires_flow():
    # still water or reversed flow has no subcritical branch to invert
    for Q in (0.0, -1.0):
        with pytest.raises(ValueError, match="discharge and width must be positive") as err:
            depth_from_energy(2.5, Q, 10.0)
        assert not isinstance(err.value, InsufficientEnergyError)


# ---------------------------------------------------------------- #
#  Analytic depth derivatives (the losses' kernels) vs central differences
# ---------------------------------------------------------------- #


def test_depth_derivatives_match_finite_differences():
    rng = np.random.default_rng(23)
    eps = 1e-6
    for _ in range(200):
        Q = rng.uniform(1.0, 400.0)
        b = rng.uniform(2.0, 60.0)
        n = rng.uniform(0.01, 0.05)
        h = rng.uniform(0.1, 10.0)
        for fn, dfn in (
            (lambda x: specific_energy(x, Q, b), lambda x: _denergy(x, Q * Q, GRAVITY * b * b)),
            (lambda x: froude(x, Q, b), lambda x: _dfroude(x, -1.5 * Q, b * math.sqrt(GRAVITY))),
            (
                lambda x: friction_slope(x, Q, b, n),
                lambda x: _dfriction_slope(x, b, friction_slope(x, Q, b, n)),
            ),
        ):
            fd = (fn(h + eps) - fn(h - eps)) / (2.0 * eps)
            assert dfn(h) == pytest.approx(fd, rel=1e-5, abs=1e-12)


def test_point_functions_keep_their_operand_order():
    # Each relation is written once, as a kernel on hoisted sub-expressions;
    # the public functions and the derivative kernels must round exactly like
    # the textbook expression evaluated left to right, on arrays and on
    # Python floats alike.
    rng = np.random.default_rng(29)
    Q, b, n = (rng.uniform(lo, hi, (40, 1)) for lo, hi in ((1.0, 400.0), (2.0, 60.0), (0.01, 0.05)))
    h = rng.uniform(0.05, 10.0, (40, 9))
    scalars = [(float(Q[k, 0]), float(b[k, 0]), float(n[k, 0]), float(h[k, 0])) for k in range(40)]
    for Q, b, n, h in [(Q, b, n, h)] + scalars:
        area, radius = b * h, b * h / (b + 2.0 * h)
        j = n * n * Q * Q / (area * area * radius ** (4.0 / 3.0))
        pairs = (
            (specific_energy(h, Q, b), h + Q * Q / (2.0 * GRAVITY * b * b * h * h)),
            (_denergy(h, Q * Q, GRAVITY * b * b), 1.0 - Q * Q / (GRAVITY * b * b * h ** 3)),
            (friction_slope(h, Q, b, n), j),
            (_dfriction_slope(h, b, friction_slope(h, Q, b, n)), j * (8.0 / (3.0 * (b + 2.0 * h)) - 10.0 / (3.0 * h))),
            (froude(h, Q, b), Q / (b * h * np.sqrt(GRAVITY * h))),
            (_dfroude(h, -1.5 * Q, b * math.sqrt(GRAVITY)), -1.5 * Q / (b * math.sqrt(GRAVITY) * h ** 2.5)),
        )
        for got, want in pairs:
            assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()


# ---------------------------------------------------------------- #
#  Scenario validation
# ---------------------------------------------------------------- #


def test_scenario_rejects_nonpositive_fields():
    good = dict(s=1e-3, b=10.0, n=0.02, z_d=3.0, Q=44.29)
    for field in good:
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                ChannelScenario(**{**good, field: bad})
