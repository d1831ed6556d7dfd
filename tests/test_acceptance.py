"""End-to-end acceptance checks for the whole package.

The fast blocks pin exact contracts: solver physics oracles, analytic
gradients against central finite differences, optimizer and scheduler
arithmetic, early stopping on real training runs, metric identities, the
λ=1 degeneration to data-only training, and bitwise run replay.  The slow block executes the stock desk experiment
(ten width-16 cells, 3 seeds, training fraction 0.05) and asserts the
directional claims: physics-aware training does not hurt when data is
sparse, the volume term is the weakest VTS physics strategy, and
extrapolation is harder across the board but degrades less for
physics-aware models.
"""

import time
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from backwater.data import (
    DESK_GRID,
    FULL_GRID,
    ParameterRanges,
    desk_ranges,
    full_ranges,
    generate,
)
from backwater.harness import (
    aggregate,
    desk_plan,
    execute_plan,
    replay,
    run_one,
)
from backwater.hydraulics import (
    InsufficientEnergyError,
    conjugate_depth,
    critical_depth,
    friction_slope,
    froude,
    momentum_function,
    specific_energy,
    weir_depth,
)
from backwater.losses import loss_bc, loss_en, loss_fr, loss_pde, loss_vol, physics_constants
from backwater.metrics import empirical_cdf, evaluate_set
from backwater.models import ModelSpec, train
from backwater.network import (
    AdamState,
    NetworkParams,
    ReduceLROnPlateau,
    TrainConfig,
    adam_step,
    backward,
    forward,
    init,
)
from backwater.solver import MIXED, GridSpec, solve_profile, step_upstream

#: Wide parameter box spanning both flow regimes; rich in hydraulic jumps.
WIDE_RANGES = ParameterRanges.from_dict(
    {
        "s": (5e-4, 2e-2, 5),
        "b": (5.0, 50.0, 5),
        "n": (0.01, 0.05, 5),
        "zd": (1.0, 5.0, 2),
        "Q": (100.0, 300.0, 2),
    }
)


@pytest.fixture(scope="module")
def wide_corpus():
    return generate(WIDE_RANGES, GridSpec(dx=10.0, length=1000.0), seed=0)


@pytest.fixture(scope="module")
def small_corpus():
    ranges = ParameterRanges.from_dict(
        {
            "s": (1e-3, 5e-3, 3),
            "b": (8.0, 20.0, 2),
            "n": (0.015, 0.03, 2),
            "zd": (1.5, 3.0, 2),
            "Q": (30.0, 120.0, 2),
        }
    )
    return generate(ranges, GridSpec(dx=10.0, length=300.0), seed=5)


# ---------------------------------------------------------------- #
#  Hydraulic oracles
# ---------------------------------------------------------------- #


def test_conjugate_depth_is_an_involution_over_1000_cases():
    rng = np.random.default_rng(42)
    h = rng.uniform(0.05, 8.0, 1000)
    q = rng.uniform(1.0, 300.0, 1000)
    b = rng.uniform(2.0, 50.0, 1000)
    back = conjugate_depth(conjugate_depth(h, q, b), q, b)
    assert np.max(np.abs(back - h) / h) <= 1e-9


def jump_placement(p) -> str:
    """Assert the momentum bracket of a mixed profile's jump; say how it sits.

    Returns "forced" when the subcritical branch ends inside the jump's
    interval, "dam_face" for a jump one station above the dam, and
    "bracketed" otherwise.
    """
    scen, j = p.scenario, p.jump_index
    h_n = p.depths[-1]
    m_n = momentum_function(h_n, scen.Q, scen.b)
    assert froude(h_n, scen.Q, scen.b) > 1.0
    if j >= 2:
        # one station below the jump the backwater still holds more
        # momentum than the uniform inflow, so the jump cannot sit lower
        m_below = momentum_function(p.depths[j - 1], scen.Q, scen.b)
        assert m_below >= m_n * (1.0 - 1e-12)
    try:
        h_sub = step_upstream(p.depths[j - 1], scen, p.grid.dx)
    except InsufficientEnergyError:
        # the subcritical branch ends inside this interval: the jump had
        # to be placed here, which is the balance check for this class
        return "forced"
    m_at = momentum_function(h_sub, scen.Q, scen.b)
    assert m_at <= m_n * (1.0 + 1e-12)
    return "dam_face" if j == 1 else "bracketed"


def test_jump_momentum_balance_within_one_station(wide_corpus):
    started = time.perf_counter()
    placements = Counter(jump_placement(p) for p in wide_corpus.profiles if p.regime == MIXED)
    assert placements["bracketed"] > 0 and placements["forced"] > 0
    assert sum(placements.values()) >= 100
    assert time.perf_counter() - started < 60.0


def test_full_box_rejections_energy_balance_and_jumps():
    ds = generate(full_ranges(), FULL_GRID, seed=0)
    counts = ds.manifest["counts"]
    assert counts["grid"] == 10_290
    assert len(ds.manifest["rejected"]) < 0.10 * counts["grid"]

    worst = 0.0
    pairs = 0
    placements = Counter()
    for p in ds.profiles:
        scen, dx = p.scenario, p.grid.dx
        marched = p.depths[: p.jump_index] if p.regime == MIXED else p.depths
        e = specific_energy(marched, scen.Q, scen.b)
        j = friction_slope(marched, scen.Q, scen.b, scen.n)
        resid = np.abs(e[1:] - e[:-1] - dx * (j[:-1] - scen.s))
        if resid.size:
            worst = max(worst, float(resid.max()))
            pairs += resid.size
        if p.regime == MIXED:
            placements[jump_placement(p)] += 1
    assert worst <= 1e-12
    assert pairs > 1_000_000
    assert placements["bracketed"] > 0 and placements["forced"] > 0
    assert sum(placements.values()) > 1000


def test_energy_balance_residual_on_subcritical_pairs(wide_corpus):
    worst = 0.0
    pairs = 0
    for p in wide_corpus.profiles:
        scen, d, dx = p.scenario, p.depths, p.grid.dx
        sub = froude(d, scen.Q, scen.b) < 1.0
        mask = sub[:-1] & sub[1:]
        if not mask.any():
            continue
        e = specific_energy(d, scen.Q, scen.b)
        j = friction_slope(d, scen.Q, scen.b, scen.n)
        resid = np.abs(e[1:] - e[:-1] - dx * (j[:-1] - scen.s))
        worst = max(worst, float(resid[mask].max()))
        pairs += int(mask.sum())
    assert pairs > 10_000
    assert worst <= 1e-12


def test_weir_boundary_exact_at_every_dam(wide_corpus):
    for p in wide_corpus.profiles:
        assert p.depths[0] == weir_depth(p.scenario)


# ---------------------------------------------------------------- #
#  Differentiation
# ---------------------------------------------------------------- #


def relative_gap(analytic, numeric):
    denom = max(abs(analytic), abs(numeric), 1e-10)
    return abs(analytic - numeric) / denom


def random_pointwise_batch(seed, size):
    # Depths relative to each sample's critical depth stay safely above the
    # physics floor, so finite differences never straddle the clamp kink.
    rng = np.random.default_rng(seed)
    q = rng.uniform(20.0, 300.0, size)
    b = rng.uniform(5.0, 50.0, size)
    aux = {"Q": q, "b": b}
    true = critical_depth(q, b) * rng.uniform(1.1, 3.0, size)
    pred = true * rng.uniform(0.8, 1.2, size)
    return pred, true, aux


def random_profile_batch(seed, batch, n_pts):
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


def assert_gradient_matches_fd(loss_fn, pred, tol=1e-5):
    grad = loss_fn(pred)[1]
    flat = pred.ravel()
    for k in range(flat.size):
        eps = 1e-5 * max(1.0, abs(flat[k]))
        bumped = pred.copy().ravel()
        bumped[k] += eps
        up = loss_fn(bumped.reshape(pred.shape))[0]
        bumped[k] -= 2 * eps
        dn = loss_fn(bumped.reshape(pred.shape))[0]
        fd = (up - dn) / (2 * eps)
        assert relative_gap(grad.ravel()[k], fd) <= tol, f"entry {k}"


def test_backward_matches_finite_differences_100_trials():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    done = 0
    while done < 100:
        sizes = [
            int(rng.integers(2, 5)),
            int(rng.integers(3, 7)),
            int(rng.integers(3, 7)),
            int(rng.integers(1, 3)),
        ]
        params = init(sizes, seed=int(rng.integers(1 << 30)))
        x = rng.normal(0.0, 1.0, (int(rng.integers(2, 7)), sizes[0]))
        c = rng.normal(0.0, 1.0, (x.shape[0], sizes[-1]))
        out, cache = forward(params, x)
        hidden = zip(cache["activations"][:-2], params.weights, params.biases)
        if min(np.abs(a @ w + b).min() for a, w, b in hidden) < 1e-3:
            continue  # a unit sits on the ReLU kink; finite differences
            # would straddle it, so this draw cannot be checked
        done += 1
        grad = NetworkParams(params.layer_sizes, backward(params, cache, c))
        d_w, d_b = grad.weights, grad.biases

        def loss():
            return float(np.sum(forward(params, x)[0] * c))

        for arrays, grads in ((params.weights, d_w), (params.biases, d_b)):
            for arr, g in zip(arrays, grads):
                flat, gflat = arr.ravel(), g.ravel()
                for k in range(flat.size):
                    old = flat[k]
                    eps = 1e-5 * max(1.0, abs(old))
                    flat[k] = old + eps
                    up = loss()
                    flat[k] = old - eps
                    dn = loss()
                    flat[k] = old
                    fd = (up - dn) / (2 * eps)
                    assert relative_gap(gflat[k], fd) <= 1e-5
    assert time.perf_counter() - started < 60.0


def stack_of_one(kernel, consts):
    """A physics kernel as a function of one member's predictions: (value, gradient)."""
    consts = tuple(a[None] for a in consts)

    def loss(pred):
        value, grad, _ = kernel(pred[None], consts)
        return float(value[0]), grad[0]

    return loss


def test_physics_loss_gradients_match_finite_differences_100_trials():
    started = time.perf_counter()
    for trial in range(100):
        pred, true, aux = random_pointwise_batch(trial, size=10)
        en, fr = physics_constants("en", aux, true), physics_constants("fr", aux, true)
        assert_gradient_matches_fd(stack_of_one(loss_en, en), pred)
        assert_gradient_matches_fd(stack_of_one(loss_fr, fr), pred)

        pred2, true2, aux2 = random_profile_batch(trial + 1000, batch=2, n_pts=9)
        vol, bc = physics_constants("vol", aux2, true2), physics_constants("bc", aux2, true2)
        assert_gradient_matches_fd(stack_of_one(loss_vol, vol), pred2)
        assert_gradient_matches_fd(stack_of_one(loss_bc, bc), pred2)
        pde = physics_constants("pde", aux2, true2)
        assert_gradient_matches_fd(stack_of_one(loss_pde, pde), pred2)
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------- #
#  Optimizer and scheduler contracts
# ---------------------------------------------------------------- #


def test_adam_first_step_identity():
    params = init([3, 4, 1], seed=11)
    before = params.copy()
    g = np.random.default_rng(1).normal(0.0, 1.0, params.flat.shape)
    state = AdamState(params, lr=0.01)
    adam_step(state, params, g)
    # bias correction cancels on the first step: delta = -lr * g / (|g| + eps)
    np.testing.assert_allclose(params.flat, before.flat - 0.01 * g / (np.abs(g) + 1e-8), rtol=1e-12)


def test_adam_converges_on_scalar_quadratic():
    params = NetworkParams([1, 1], np.array([0.0, 0.0]))
    state = AdamState(params, lr=0.1)
    for _ in range(200):
        w = params.weights[0][0, 0]
        adam_step(state, params, np.array([2.0 * (w - 3.0), 0.0]))
    assert abs(params.weights[0][0, 0] - 3.0) < 0.05


def test_plateau_schedule_arithmetic():
    sched = ReduceLROnPlateau(patience=10)
    lr = 0.1
    for val in (1.0, 0.9, 0.8):  # improving: untouched
        lr = sched.update(val, lr)
    assert lr == 0.1
    for _ in range(9):  # stalling, but patience not yet exhausted
        lr = sched.update(0.8, lr)
        assert lr == 0.1
    assert sched.update(0.8, lr) == 0.05  # tenth flat epoch halves once
    lr = 0.05
    lr = sched.update(0.8 - 5e-9, lr)  # below the improvement threshold
    assert sched.wait == 1
    for _ in range(500):  # repeated plateaus floor at MIN_LR
        lr = sched.update(0.8, lr)
    assert lr == 1e-5


def test_early_stopping_arithmetic(small_corpus):
    # Oracle on real runs: the best epoch is the first minimum of val_loss,
    # and a run stops at the first epoch `patience` epochs past its running
    # best, never earlier; otherwise it runs its whole budget.
    runs = [  # (arch, strategy, initial_lr, patience, max_epochs, stops early)
        ("sp", "en", 1e-1, 3, 60, True),
        ("int", "fr", 1e-1, 3, 60, True),
        ("vts", "vol", 1e-1, 3, 60, True),
        ("sp", "en", 1e-3, 5, 30, False),
        ("int", "fr", 1e-3, 5, 30, False),
        ("vts", "vol", 1e-3, 5, 30, False),
    ]
    for arch, strategy, lr, patience, max_epochs, stops in runs:
        config = TrainConfig(
            initial_lr=lr,
            lr_patience=2,
            early_stop_patience=patience,
            max_epochs=max_epochs,
            batch_size=64,
            seed=1,
        )
        model = train(ModelSpec(arch, strategy, 0.5, 8), small_corpus, config)
        val = [row["val_loss"] for row in model.history]
        diag = model.diagnostics
        assert diag["diverged"] is False
        assert diag["best_epoch"] == int(np.argmin(val))
        assert diag["best_val_loss"] == min(val)
        running_best, best_epoch, stop = np.inf, 0, None
        for epoch, loss in enumerate(val):
            if loss < running_best:
                running_best, best_epoch = loss, epoch
            if epoch - best_epoch >= patience:
                stop = epoch
                break
        assert diag["stopped_epoch"] == stop
        assert len(val) == (max_epochs if stop is None else stop + 1)
        assert (stop is not None) == stops, (arch, lr)


# ---------------------------------------------------------------- #
#  Metric identities
# ---------------------------------------------------------------- #


def test_perfect_predictor_metric_identities(small_corpus):
    exact = np.array([solve_profile(p.scenario, p.grid).depths for p in small_corpus.profiles])
    out = evaluate_set(exact, small_corpus.profiles, split="test")
    assert all(r.nmae == 0.0 for r in out.records)
    assert all(r.nnse == 1.0 for r in out.records)
    assert out.summary["nmae"]["mean"] == 0.0
    assert out.summary["nnse"]["mean"] == 1.0


def test_profile_mean_predictor_scores_half_nnse(small_corpus):
    own_mean = np.array(
        [np.full(p.grid.n_points, solve_profile(p.scenario, p.grid).depths.mean())
         for p in small_corpus.profiles]
    )
    out = evaluate_set(own_mean, small_corpus.profiles, split="test")
    for r in out.records:
        assert abs(r.nnse - 0.5) <= 1e-12
    assert abs(out.summary["nnse"]["mean"] - 0.5) <= 1e-12


def test_cdf_is_monotone_and_reaches_one(small_corpus):
    cdf_values, cdf_freq = empirical_cdf(np.random.default_rng(3).normal(size=257))
    assert np.all(np.diff(cdf_freq) >= 0.0)
    assert cdf_freq[-1] == 1.0
    assert np.all(np.diff(cdf_values) >= 0.0)

    exact = np.array([solve_profile(p.scenario, p.grid).depths for p in small_corpus.profiles])
    out = evaluate_set(exact * 1.01, small_corpus.profiles, split="test")
    _, cdf_freq = empirical_cdf([r.nmae for r in out.records])
    assert np.all(np.diff(cdf_freq) >= 0.0)
    assert cdf_freq[-1] == 1.0


# ---------------------------------------------------------------- #
#  Desk-scale directional experiment
# ---------------------------------------------------------------- #


@pytest.fixture(scope="module")
def desk_outcome():
    ds = generate(desk_ranges(), DESK_GRID, seed=0)
    plan, config = desk_plan()
    started = time.perf_counter()
    records = execute_plan(ds, plan, config)
    elapsed = time.perf_counter() - started
    test_means, ext_means = {}, {}
    for row in aggregate(records):
        key = (row["arch"], row["strategy"])
        assert row["fraction"] == 0.05
        if row["split"] == "test":
            test_means[key] = row["seed_mean_nmae"]
        elif row["split"] == "extrapolation":
            ext_means[key] = row["seed_mean_nmae"]
    return ds, records, test_means, ext_means, elapsed


@pytest.mark.slow
def test_desk_experiment_shape_and_budget(desk_outcome):
    ds, records, test_means, ext_means, elapsed = desk_outcome
    assert elapsed < 1800.0
    assert ds.manifest["counts"]["retained"] == 500
    assert ds.grid.n_points == 101
    assert len(records) == 30
    assert {r.width for r in records} == {16}
    assert {r.seed for r in records} == {0, 1, 2}
    assert {r.fraction for r in records} == {0.05}
    assert set(test_means) == set(ext_means)


@pytest.mark.slow
def test_physics_training_not_worse_when_data_is_sparse(desk_outcome):
    _, _, test_means, _, _ = desk_outcome
    for arch in ("sp", "int", "vts"):
        for strategy in ("en", "fr"):
            assert test_means[(arch, strategy)] <= test_means[(arch, "dd")], (
                f"{arch}-{strategy} underperforms {arch}-dd at fraction 0.05"
            )


@pytest.mark.slow
def test_volume_is_the_weakest_vts_physics_strategy(desk_outcome):
    _, _, test_means, _, _ = desk_outcome
    assert test_means[("vts", "vol")] >= test_means[("vts", "en")]


@pytest.mark.slow
def test_extrapolation_is_harder_but_physics_generalizes(desk_outcome):
    _, _, test_means, ext_means, _ = desk_outcome
    for key, interp in test_means.items():
        assert ext_means[key] >= interp, f"{key} scored better outside the ranges"
    for arch in ("sp", "int", "vts"):
        for strategy in ("en", "fr"):
            assert ext_means[(arch, strategy)] <= ext_means[(arch, "dd")], (
                f"{arch}-{strategy} extrapolates worse than {arch}-dd"
            )


# ---------------------------------------------------------------- #
#  λ = 1 degenerates to data-only training
# ---------------------------------------------------------------- #


def test_lambda_one_matches_data_only_bitwise(small_corpus):
    cases = (("sp", ("en",)), ("int", ("fr",)), ("vts", ("en", "fr", "vol", "bc", "pde")))
    for arch, strategies in cases:
        config = TrainConfig(max_epochs=8, batch_size=32, seed=3)
        reference = train(ModelSpec(arch, "dd", width=8), small_corpus, config)
        for strategy in strategies:
            model = train(ModelSpec(arch, strategy, 1.0, 8), small_corpus, config)
            assert model.history == reference.history
            for got, want in zip(
                model.params.weights + model.params.biases,
                reference.params.weights + reference.params.biases,
            ):
                np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------- #
#  Bitwise replay
# ---------------------------------------------------------------- #


def test_run_record_replays_bitwise(small_corpus, wide_corpus):
    config = TrainConfig(max_epochs=12, batch_size=32)
    record = run_one(
        small_corpus,
        ModelSpec("vts", "en", 0.5, 8),
        seed=1,
        config=config,
        fraction=0.5,
    )
    replayed = replay(record, small_corpus)
    assert replayed.history == record.history
    assert replayed.summaries == record.summaries
    assert [asdict(r) for r in replayed.records] == [asdict(r) for r in record.records]

    with pytest.raises(ValueError, match="checksum"):
        replay(record, wide_corpus)
