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
    PHYSICS_TERMS,
    STRATEGIES,
    clamp_depths,
    depth_floor,
    loss_bc,
    loss_en,
    loss_fr,
    loss_pde,
    loss_vol,
    physics_constants,
)
from backwater.network import dmse_dpred, mse, mse_grad
from backwater.solver import GridSpec, solve_profile

import reference_losses


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


def solo(kernel, pred, consts):
    """A kernel on a stack of one member: its (value, gradient, clamp count)."""
    value, grad, clamped = kernel(pred[None], tuple(a[None] for a in consts))
    return float(value[0]), grad[0], int(clamped[0])


def en(pred, true, aux):
    return solo(loss_en, pred, physics_constants("en", aux, true))


def fr(pred, true, aux):
    return solo(loss_fr, pred, physics_constants("fr", aux, true))


def pde(pred, aux):
    return solo(loss_pde, pred, physics_constants("pde", aux, pred))


def vol(pred, true):
    return solo(loss_vol, pred, physics_constants("vol", {}, true))


def bc(pred, true):
    return solo(loss_bc, pred, physics_constants("bc", {}, true))


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
    value, grad, n_clamped = en(true, true, aux)
    assert value == 0.0
    assert np.all(grad == 0.0)
    assert n_clamped == 0


def test_loss_en_reduces_to_mse_for_still_water():
    pred, true, aux = random_pointwise_batch(2)
    aux = dict(aux)
    aux["Q"] = np.zeros_like(aux["Q"])
    value, grad, _ = en(pred, true, aux)
    assert value == pytest.approx(mse(pred, true), rel=1e-12)
    np.testing.assert_allclose(grad, dmse_dpred(pred, true), atol=1e-15)


def test_loss_en_gradient_pointwise_and_profile():
    pred, true, aux = random_pointwise_batch(3)
    consts = physics_constants("en", aux, true)
    check_gradient(lambda p: solo(loss_en, p, consts), pred)
    pred2, true2, aux2 = random_profile_batch(4)
    consts2 = physics_constants("en", aux2, true2)
    check_gradient(lambda p: solo(loss_en, p, consts2), pred2)


def test_loss_fr_zero_at_exact_prediction():
    pred, true, aux = random_pointwise_batch(5)
    value = fr(true, true, aux)[0]
    assert value == 0.0


def test_loss_fr_gradient_pointwise_and_profile():
    pred, true, aux = random_pointwise_batch(6)
    consts = physics_constants("fr", aux, true)
    check_gradient(lambda p: solo(loss_fr, p, consts), pred)
    pred2, true2, aux2 = random_profile_batch(7)
    consts2 = physics_constants("fr", aux2, true2)
    check_gradient(lambda p: solo(loss_fr, p, consts2), pred2)


def test_loss_fr_not_scale_invariant():
    # Fr ~ h^(-3/2): scaling both depth sets by one factor changes the loss.
    pred, true, aux = random_pointwise_batch(8)
    base = fr(pred, true, aux)[0]
    scaled = fr(2.0 * pred, 2.0 * true, aux)[0]
    assert base > 0.0
    assert scaled != pytest.approx(base, rel=1e-6)


# ---------------------------------------------------------------- #
#  Volume and boundary terms
# ---------------------------------------------------------------- #


def test_loss_vol_identities():
    true = np.linspace(1.0, 3.0, 101)[None, :]
    assert vol(true, true)[0] == 0.0
    value, _, n_clamped = vol(true + 0.1, true)
    assert value == pytest.approx(10.1, rel=1e-12)
    assert n_clamped == 0


def test_loss_vol_is_volume_blind_to_permutations():
    rng = np.random.default_rng(9)
    true = rng.uniform(0.5, 5.0, (1, 33))
    permuted = true[:, rng.permutation(33)]
    assert vol(permuted, true)[0] == pytest.approx(0.0, abs=1e-12)


def test_loss_vol_gradient_sign():
    rng = np.random.default_rng(10)
    true = rng.uniform(0.5, 5.0, (2, 11))
    pred = true.copy()
    pred[0] += 0.2  # over-predicts volume: d|diff|/dpred = +1/B
    pred[1] -= 0.2
    _, grad, _ = vol(pred, true)
    np.testing.assert_allclose(grad[0], 0.5, atol=1e-15)
    np.testing.assert_allclose(grad[1], -0.5, atol=1e-15)


def test_loss_bc_identities_and_gradient_support():
    rng = np.random.default_rng(12)
    true = rng.uniform(0.5, 5.0, (2, 9))
    pred = true.copy()
    pred[:, 1:] += 3.0  # everything but the dam station is wrong
    assert bc(pred, true)[0] == 0.0
    pred[0, 0] = true[0, 0] + 0.5
    value, grad, n_clamped = bc(pred, true)
    assert value == pytest.approx(0.25, rel=1e-12)  # mean over batch of |0.5|, |0|
    assert np.all(grad[:, 1:] == 0.0)
    assert grad[0, 0] == 0.5
    assert n_clamped == 0


# ---------------------------------------------------------------- #
#  PDE residual term
# ---------------------------------------------------------------- #


def test_loss_pde_matches_independent_residual_on_solver_profile():
    scen = ChannelScenario(s=1e-3, b=10.0, n=0.02, z_d=3.0, Q=44.29)
    grid = GridSpec(dx=10.0, length=1000.0)
    depths = solve_profile(scen, grid).depths[None, :]
    aux = {"Q": [scen.Q], "b": [scen.b], "n": [scen.n], "s": [scen.s], "dx": grid.dx}
    value = pde(depths, aux)[0]

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
    value = pde(profile, aux)[0]
    assert value <= 1e-10


def test_loss_pde_gradient():
    pred, _, aux = random_profile_batch(13)
    consts = physics_constants("pde", aux, pred)
    check_gradient(lambda p: solo(loss_pde, p, consts), pred)


def test_loss_pde_needs_interior_stations():
    with pytest.raises(ValueError):
        pde(np.ones((1, 2)), {"Q": [10.0], "b": [5.0], "n": [0.02], "s": [1e-3], "dx": 10.0})


# ---------------------------------------------------------------- #
#  Depth clamping
# ---------------------------------------------------------------- #


def test_clamp_depths_counts_and_floors():
    clamped, low, count = clamp_depths(np.array([[0.5, -1.0, 0.0, 2.0, 1e-6], [0.5, 2.0, 3.0, 4.0, 5.0]]))
    assert count.tolist() == [3, 0]
    np.testing.assert_array_equal(clamped[0], [0.5, MIN_DEPTH, MIN_DEPTH, 2.0, MIN_DEPTH])
    np.testing.assert_array_equal(low[0], [False, True, True, False, True])
    same, low0, count0 = clamp_depths(np.array([[0.5, 2.0]]))
    assert count0.tolist() == [0] and low0 is None


def test_clamp_depths_accepts_per_entry_floor():
    clamped, _, count = clamp_depths(np.array([[0.3, 2.0, 0.05]]), np.array([0.4, 1.0, 0.1]))
    assert count.tolist() == [2]
    np.testing.assert_array_equal(clamped, [[0.4, 2.0, 0.1]])


def test_depth_floor_tracks_critical_depth():
    pred, _, aux = random_pointwise_batch(11)
    floor = depth_floor(aux["Q"], aux["b"])
    h_c = critical_depth(aux["Q"], aux["b"])
    np.testing.assert_allclose(floor, np.maximum(MIN_DEPTH, 0.25 * h_c))
    # Q = 0 collapses h_c, leaving the absolute floor.
    assert depth_floor(np.zeros(2), np.ones(2)) == pytest.approx(
        [MIN_DEPTH, MIN_DEPTH]
    )


def test_losses_treat_clamped_depths_as_the_floor():
    pred, true, aux = random_pointwise_batch(15)
    floor = depth_floor(aux["Q"], aux["b"])
    bad = pred.copy()
    bad[3] = -0.7
    floored = pred.copy()
    floored[3] = floor[3]
    others = np.arange(pred.size) != 3
    for fn in (lambda p: en(p, true, aux), lambda p: fr(p, true, aux)):
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


# ---------------------------------------------------------------- #
#  Kernels on per-view constants
# ---------------------------------------------------------------- #


def bits(value):
    value = np.asarray(value)
    return value.shape, value.tobytes()


@pytest.mark.parametrize("shape", [(40, 1), (12, 9), (10, 301)])
def test_kernels_match_validated_point_functions_bitwise(shape):
    # The kernels on gathered per-view constants equal the same expressions
    # written with the depth-checking point functions on a per-batch aux dict
    # (the volume and boundary terms: on the batch's targets), with some
    # predictions below the floor.
    for seed in range(20):
        pred, true, aux = random_profile_batch(seed, batch=shape[0], n_pts=shape[1])
        rng = np.random.default_rng(100 + seed)
        floor = depth_floor(aux["Q"], aux["b"])[:, None]
        low = rng.random(shape) < 0.2
        pred = np.where(low, floor * rng.uniform(-2.0, 0.999, shape), pred)
        rows = rng.permutation(shape[0])[: shape[0] // 2 + 1]
        aux_b = {k: v[rows] if isinstance(v, np.ndarray) else v for k, v in aux.items()}
        for strategy, kernel in PHYSICS_TERMS.items():
            if strategy == "pde" and shape[1] < 3:
                continue
            consts = physics_constants(strategy, aux, true)
            got = solo(kernel, pred[rows], tuple(a[rows] for a in consts))
            want = reference_losses.physics_term(strategy, pred[rows], true[rows], aux_b)
            clamped = 0 if strategy in ("vol", "bc") else int(low[rows].sum())
            assert got[2] == want[2] == clamped, strategy
            assert bits(got[0]) == bits(want[0]), strategy
            assert bits(got[1]) == bits(want[1]), strategy


@pytest.mark.parametrize(
    "strategy,shape",
    [(s, shape) for s in PHYSICS_TERMS for shape in ((10, 1), (6, 7)) if s != "pde" or shape[1] >= 3],
)
def test_stacked_kernel_equals_each_members_own_call_bitwise(strategy, shape):
    # Three members on their own scenarios, so their own floors; the second
    # predicts a fifth of its depths under its floor.  Mixed with the data
    # term at each member's own lambda as stack arrays, every member's
    # objective and gradient equal its own call's, combined in floats.
    kernel = PHYSICS_TERMS[strategy]
    preds, trues, consts = [], [], []
    for member in range(3):
        pred, true, aux = random_profile_batch(40 + member, batch=shape[0], n_pts=shape[1])
        if member == 1:
            rng = np.random.default_rng(50)
            floor = depth_floor(aux["Q"], aux["b"])[:, None]
            pred = np.where(rng.random(shape) < 0.2, floor * rng.uniform(-2.0, 0.999, shape), pred)
        preds.append(pred)
        trues.append(true)
        consts.append(physics_constants(strategy, aux, true))
    stacked = np.stack(preds)
    values, grads, counts = kernel(stacked, tuple(np.stack(c) for c in zip(*consts)))
    assert values.shape == counts.shape == (3,) and grads.shape == stacked.shape
    lam = np.array([0.3, 0.5, 0.9])
    data, d_data = mse_grad(stacked, np.stack(trues))
    totals = lam * data + (1.0 - lam) * values
    d_totals = lam[:, None, None] * d_data + (1.0 - lam)[:, None, None] * grads
    for k in range(3):
        value, grad, count = solo(kernel, preds[k], consts[k])
        assert bits(values[k]) == bits(value) and bits(grads[k]) == bits(grad)
        assert counts[k] == count
        lam_k = float(lam[k])
        total = lam_k * mse(preds[k], trues[k]) + (1.0 - lam_k) * value
        d_total = lam_k * dmse_dpred(preds[k], trues[k]) + (1.0 - lam_k) * grad
        assert bits(totals[k]) == bits(total) and bits(d_totals[k]) == bits(d_total)
    clamps = strategy in ("en", "fr", "pde")
    assert counts.tolist() == [0, int(counts[1]), 0] and (counts[1] > 0) == clamps


def test_physics_constants_shapes():
    pred, true, aux = random_profile_batch(21, batch=4, n_pts=6)
    for strategy in ("en", "fr", "pde"):
        for a in physics_constants(strategy, aux, true):
            assert a.shape in ((4, 1), (4, 6))
    pointwise, true1, aux1 = random_pointwise_batch(22, size=5)
    assert all(a.shape == (5,) for a in physics_constants("en", aux1, true1))
    (volume,) = physics_constants("vol", aux, true)
    (dam,) = physics_constants("bc", aux, true)
    assert volume.shape == dam.shape == (4,)
    assert bits(volume) == bits(true.sum(axis=1)) and bits(dam) == bits(true[:, 0])


def test_physics_terms_table_names_every_strategy():
    assert STRATEGIES == ("dd", *PHYSICS_TERMS)
    assert PHYSICS_TERMS == {"en": loss_en, "fr": loss_fr, "vol": loss_vol, "bc": loss_bc, "pde": loss_pde}


def test_physics_constants_validate_where_training_starts():
    _, true, aux = random_profile_batch(23)
    for strategy in ("en", "fr", "pde"):
        for bad in (0.0, -1.0, np.nan, np.inf):
            targets = true.copy()
            targets[1, 2] = bad
            with pytest.raises(ValueError, match="flow depth must be positive"):
                physics_constants(strategy, aux, targets)
        with pytest.raises(ValueError, match="discharge must be non-negative"):
            physics_constants(strategy, dict(aux, Q=-aux["Q"]), true)
    for strategy in ("vol", "bc", "pde"):
        with pytest.raises(ValueError, match="2-D"):
            physics_constants(strategy, aux, true[:, 0])
    with pytest.raises(ValueError, match="no physics term"):
        physics_constants("dd", aux, true)
