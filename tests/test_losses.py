"""Tests for the physics loss terms and their gradients."""

import numpy as np
import pytest

from backwater.hydraulics import (
    ChannelScenario,
    critical_depth,
    friction_slope,
    normal_depth,
    specific_energy,
)
from backwater.losses import (
    MIN_DEPTH,
    clamp_depths,
    depth_floor,
    loss_bc,
    loss_en,
    loss_fr,
    loss_pde,
    loss_vol,
)
from backwater.network import dmse_dpred, mse
from backwater.solver import GridSpec, solve_profile


def relative_gap(analytic, numeric):
    denom = max(abs(analytic), abs(numeric), 1e-10)
    return abs(analytic - numeric) / denom


def random_pointwise_batch(seed, size=24):
    # Depths are drawn relative to each sample's critical depth so that the
    # predictions stay safely above the physics floor (a fraction of h_c).
    rng = np.random.default_rng(seed)
    q = rng.uniform(20.0, 300.0, size)
    b = rng.uniform(5.0, 50.0, size)
    aux = {
        "Q": q,
        "b": b,
        "n": rng.uniform(0.01, 0.05, size),
        "s": rng.uniform(5e-4, 2e-2, size),
        "dx": 10.0,
    }
    true = critical_depth(q, b) * rng.uniform(1.1, 3.0, size)
    pred = true * rng.uniform(0.8, 1.2, size)
    return pred, true, aux


def random_profile_batch(seed, batch=3, n_pts=7):
    rng = np.random.default_rng(seed)
    q = rng.uniform(20.0, 300.0, batch)
    b = rng.uniform(5.0, 50.0, batch)
    aux = {
        "Q": q,
        "b": b,
        "n": rng.uniform(0.01, 0.05, batch),
        "s": rng.uniform(5e-4, 2e-2, batch),
        "dx": 10.0,
    }
    true = critical_depth(q, b)[:, None] * rng.uniform(1.1, 3.0, (batch, n_pts))
    pred = true * rng.uniform(0.8, 1.2, (batch, n_pts))
    return pred, true, aux


def check_gradient(loss_fn, pred, tol=1e-5):
    value, grad = loss_fn(pred)[:2]
    flat = pred.ravel()
    for k in range(flat.size):
        # Relative step keeps the central difference out of roundoff noise.
        eps = 1e-5 * max(1.0, abs(flat[k]))
        bumped = pred.copy().ravel()
        bumped[k] += eps
        up = loss_fn(bumped.reshape(pred.shape))[0]
        bumped[k] -= 2 * eps
        dn = loss_fn(bumped.reshape(pred.shape))[0]
        fd = (up - dn) / (2 * eps)
        assert relative_gap(grad.ravel()[k], fd) <= tol, f"entry {k}"
    return value, grad


# ---------------------------------------------------------------- #
#  Energy and Froude terms
# ---------------------------------------------------------------- #


def test_loss_en_zero_at_exact_prediction():
    pred, true, aux = random_pointwise_batch(0)
    value, grad, n_clamped = loss_en(true, true, aux)
    assert value == 0.0
    assert np.all(grad == 0.0)
    assert n_clamped == 0


def test_loss_en_reduces_to_mse_for_still_water():
    pred, true, aux = random_pointwise_batch(2)
    aux = dict(aux)
    aux["Q"] = np.zeros_like(aux["Q"])
    value, grad, _ = loss_en(pred, true, aux)
    assert value == pytest.approx(mse(pred, true), rel=1e-12)
    np.testing.assert_allclose(grad, dmse_dpred(pred, true), atol=1e-15)


def test_loss_en_gradient_pointwise_and_profile():
    pred, true, aux = random_pointwise_batch(3)
    check_gradient(lambda p: loss_en(p, true, aux), pred)
    pred2, true2, aux2 = random_profile_batch(4)
    check_gradient(lambda p: loss_en(p, true2, aux2), pred2)


def test_loss_fr_zero_at_exact_prediction():
    pred, true, aux = random_pointwise_batch(5)
    value = loss_fr(true, true, aux)[0]
    assert value == 0.0


def test_loss_fr_gradient_pointwise_and_profile():
    pred, true, aux = random_pointwise_batch(6)
    check_gradient(lambda p: loss_fr(p, true, aux), pred)
    pred2, true2, aux2 = random_profile_batch(7)
    check_gradient(lambda p: loss_fr(p, true2, aux2), pred2)


def test_loss_fr_not_scale_invariant():
    # Fr ~ h^(-3/2): scaling both depth sets by one factor changes the loss.
    pred, true, aux = random_pointwise_batch(8)
    base = loss_fr(pred, true, aux)[0]
    scaled = loss_fr(2.0 * pred, 2.0 * true, aux)[0]
    assert base > 0.0
    assert scaled != pytest.approx(base, rel=1e-6)


# ---------------------------------------------------------------- #
#  Volume and boundary terms
# ---------------------------------------------------------------- #


def test_loss_vol_identities():
    true = np.linspace(1.0, 3.0, 101)[None, :]
    assert loss_vol(true, true)[0] == 0.0
    value, _ = loss_vol(true + 0.1, true)
    assert value == pytest.approx(10.1, rel=1e-12)


def test_loss_vol_is_volume_blind_to_permutations():
    rng = np.random.default_rng(9)
    true = rng.uniform(0.5, 5.0, (1, 33))
    permuted = true[:, rng.permutation(33)]
    assert loss_vol(permuted, true)[0] == pytest.approx(0.0, abs=1e-12)


def test_loss_vol_gradient_sign():
    rng = np.random.default_rng(10)
    true = rng.uniform(0.5, 5.0, (2, 11))
    pred = true.copy()
    pred[0] += 0.2  # over-predicts volume: d|diff|/dpred = +1/B
    pred[1] -= 0.2
    _, grad = loss_vol(pred, true)
    np.testing.assert_allclose(grad[0], 0.5, atol=1e-15)
    np.testing.assert_allclose(grad[1], -0.5, atol=1e-15)


def test_loss_bc_identities_and_gradient_support():
    rng = np.random.default_rng(12)
    true = rng.uniform(0.5, 5.0, (2, 9))
    pred = true.copy()
    pred[:, 1:] += 3.0  # everything but the dam station is wrong
    assert loss_bc(pred, true)[0] == 0.0
    pred[0, 0] = true[0, 0] + 0.5
    value, grad = loss_bc(pred, true)
    assert value == pytest.approx(0.25, rel=1e-12)  # mean over batch of |0.5|, |0|
    assert np.all(grad[:, 1:] == 0.0)
    assert grad[0, 0] == 0.5


# ---------------------------------------------------------------- #
#  PDE residual term
# ---------------------------------------------------------------- #


def test_loss_pde_matches_independent_residual_on_solver_profile():
    scen = ChannelScenario(s=1e-3, b=10.0, n=0.02, z_d=3.0, Q=44.29)
    grid = GridSpec(dx=10.0, length=1000.0)
    depths = solve_profile(scen, grid).depths[None, :]
    aux = {"Q": [scen.Q], "b": [scen.b], "n": [scen.n], "s": [scen.s], "dx": grid.dx}
    value = loss_pde(depths, aux)[0]

    # Independent central difference of the solver's own energy series.
    E = specific_energy(depths[0], scen.Q, scen.b)
    J = friction_slope(depths[0], scen.Q, scen.b, scen.n)
    r = (E[2:] - E[:-2]) / (2.0 * grid.dx) + scen.s - J[1:-1]
    assert value == pytest.approx(float(np.mean(r * r)), rel=1e-12)
    # Exact marching profiles satisfy the scheme to first order.
    assert np.max(np.abs(r)) < 1e-4


def test_loss_pde_zero_on_uniform_flow():
    scen = ChannelScenario(s=2e-3, b=15.0, n=0.025, z_d=2.0, Q=120.0)
    h_n = normal_depth(scen)
    profile = np.full((1, 51), h_n)
    aux = {"Q": [scen.Q], "b": [scen.b], "n": [scen.n], "s": [scen.s], "dx": 10.0}
    value = loss_pde(profile, aux)[0]
    assert value <= 1e-10


def test_loss_pde_gradient():
    pred, _, aux = random_profile_batch(13)
    check_gradient(lambda p: loss_pde(p, aux), pred)


def test_loss_pde_needs_interior_stations():
    with pytest.raises(ValueError):
        loss_pde(np.ones((1, 2)), {"Q": [10.0], "b": [5.0], "n": [0.02], "s": [1e-3], "dx": 10.0})


# ---------------------------------------------------------------- #
#  Depth clamping
# ---------------------------------------------------------------- #


def test_clamp_depths_counts_and_floors():
    clamped, count = clamp_depths(np.array([0.5, -1.0, 0.0, 2.0, 1e-6]))
    assert count == 3
    np.testing.assert_array_equal(clamped, [0.5, MIN_DEPTH, MIN_DEPTH, 2.0, MIN_DEPTH])
    same, count0 = clamp_depths(np.array([0.5, 2.0]))
    assert count0 == 0


def test_clamp_depths_accepts_per_entry_floor():
    clamped, count = clamp_depths(np.array([0.3, 2.0, 0.05]), np.array([0.4, 1.0, 0.1]))
    assert count == 2
    np.testing.assert_array_equal(clamped, [0.4, 2.0, 0.1])


def test_depth_floor_tracks_critical_depth():
    pred, _, aux = random_pointwise_batch(11)
    floor = depth_floor(aux, pred)
    h_c = critical_depth(aux["Q"], aux["b"])
    np.testing.assert_allclose(floor, np.maximum(MIN_DEPTH, 0.25 * h_c))
    # Q = 0 collapses h_c, leaving the absolute floor.
    assert depth_floor({"Q": np.zeros(2), "b": np.ones(2)}, np.ones(2)) == pytest.approx(
        [MIN_DEPTH, MIN_DEPTH]
    )


def test_losses_treat_clamped_depths_as_the_floor():
    pred, true, aux = random_pointwise_batch(15)
    floor = depth_floor(aux, pred)
    bad = pred.copy()
    bad[3] = -0.7
    floored = pred.copy()
    floored[3] = floor[3]
    others = np.arange(pred.size) != 3
    for fn in (lambda p: loss_en(p, true, aux), lambda p: loss_fr(p, true, aux)):
        v_bad, g_bad, n_bad = fn(bad)
        v_floor, g_floor, n_floor = fn(floored)
        # The loss value is evaluated at the floor ...
        assert v_bad == v_floor
        # ... the one entry under it is counted as clamped ...
        assert (n_bad, n_floor) == (1, 0)
        # ... but below the floor the clamped loss is flat, so its true
        # gradient is zero; a finite difference there agrees.
        assert g_bad[3] == 0.0
        assert g_floor[3] != 0.0
        np.testing.assert_array_equal(g_bad[others], g_floor[others])
        assert fn(bad)[0] == fn(np.where(others, bad, -0.7 + 1e-4))[0]
