"""Tests for architecture specs, training loops, and profile reconstruction."""

import pickle
from dataclasses import asdict

import numpy as np
import pytest

from backwater.data import (
    DESK_GRID,
    PARAM_NAMES,
    ParameterRanges,
    desk_ranges,
    generate,
    view_int,
    view_sp,
    view_vts,
)
from backwater.hydraulics import normal_depth, weir_depth
from backwater.losses import MIN_DEPTH
from backwater import models
from backwater.models import (
    ModelSpec,
    TrainedModel,
    load_model,
    predict,
    reconstruct,
    save_model,
    train,
)
from backwater.losses import physics_constants
from backwater.network import (
    AdamState,
    NetworkParams,
    ReduceLROnPlateau,
    TrainConfig,
    adam_step,
    backward,
    dmse_dpred,
    forward,
    init,
    mse,
)
from backwater.solver import GridSpec

import reference_losses

SMALL_RANGES = ParameterRanges(
    s=(1e-3, 5e-3, 3),
    b=(8.0, 20.0, 2),
    n=(0.015, 0.03, 2),
    zd=(1.5, 3.0, 2),
    Q=(30.0, 120.0, 2),
)
SMALL_GRID = GridSpec(dx=10.0, length=300.0)


@pytest.fixture(scope="module")
def small_ds():
    return generate(SMALL_RANGES, SMALL_GRID, seed=5)


@pytest.fixture(scope="module")
def sp_model(small_ds):
    spec = ModelSpec("sp", width=16)
    return train(spec, small_ds, TrainConfig(max_epochs=30, batch_size=64, seed=0))


def zero_net_model(small_ds, arch, out_bias):
    """TrainedModel whose network ignores inputs and emits its output bias."""
    spec = ModelSpec(arch, width=8)
    params = init(spec.layer_sizes(small_ds.grid.n_points), seed=0)
    for w in params.weights:
        w[:] = 0.0
    params.biases[-1][:] = out_bias
    return TrainedModel(spec, params, small_ds.scaler, small_ds.grid)


# ---------------------------------------------------------------- #
#  ModelSpec
# ---------------------------------------------------------------- #


def test_spec_defaults_and_layer_sizes():
    assert ModelSpec("sp").neurons == 30
    assert ModelSpec("int").neurons == 30
    assert ModelSpec("vts").neurons == 40
    assert ModelSpec("sp").layer_sizes(101) == [6, 30, 30, 30, 1]
    assert ModelSpec("int", width=16).layer_sizes(101) == [6, 16, 16, 16, 1]
    assert ModelSpec("vts").layer_sizes(101) == [5, 40, 40, 40, 101]


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("mlp")
    with pytest.raises(ValueError):
        ModelSpec("sp", strategy="energy")
    with pytest.raises(ValueError):
        ModelSpec("sp", strategy="vol")  # whole-profile loss needs vts
    with pytest.raises(ValueError):
        ModelSpec("vts", strategy="pde", lam=1.5)
    with pytest.raises(ValueError):
        ModelSpec("sp", width=1)


def test_spec_dd_pins_lambda():
    assert ModelSpec("sp", strategy="dd", lam=0.3).lam == 1.0


def test_vts_only_strategies_accepted_on_vts():
    for strat in ("vol", "bc", "pde"):
        assert ModelSpec("vts", strategy=strat, lam=0.5).strategy == strat


# ---------------------------------------------------------------- #
#  Reconstruction
# ---------------------------------------------------------------- #


def scaled_row(model, scen):
    values = (scen.s, scen.b, scen.n, scen.z_d, scen.Q)
    return [float(model.scaler.scale(name, v)) for name, v in zip(PARAM_NAMES, values)]


def reference_profile(model, scen):
    """One profile the per-profile way: 1-row forwards and scalar int caps."""
    grid = model.grid
    row = scaled_row(model, scen)
    if model.spec.arch == "sp":
        x = model.scaler.scale("x", grid.stations)
        inputs = np.column_stack([x] + [np.full(grid.n_points, v) for v in row])
        return forward(model.params, inputs)[0][:, 0]
    if model.spec.arch == "vts":
        return forward(model.params, np.array([row]))[0][0]
    cap = 2.0 * max(weir_depth(scen), normal_depth(scen))
    inputs = np.array([[0.0] + row])
    depths = [weir_depth(scen)]
    for _ in range(1, grid.n_points):
        inputs[0, 0] = model.scaler.scale("h", depths[-1])
        h = float(forward(model.params, inputs)[0][0, 0])
        depths.append(MIN_DEPTH if h < MIN_DEPTH else cap if h > cap else h)
    return np.array(depths)


WIDE_RANGES = ParameterRanges(
    s=(5e-4, 2e-2, 5), b=(5.0, 50.0, 5), n=(0.01, 0.05, 5), zd=(1.0, 5.0, 2), Q=(100.0, 300.0, 2)
)


@pytest.fixture(scope="module", params=["desk", "wide"])
def briefly_trained(request):
    """(dataset, one briefly trained model per architecture) on a 101-station corpus."""
    ranges = desk_ranges() if request.param == "desk" else WIDE_RANGES
    ds = generate(ranges, DESK_GRID, seed=0)
    config = TrainConfig(max_epochs=2, batch_size=256, seed=0)
    return ds, [train(ModelSpec(arch, width=8), ds, config) for arch in ("sp", "int", "vts")]


def test_predict_matches_reconstruct_loop(briefly_trained):
    ds, trained = briefly_trained
    scens = [p.scenario for p in ds.profiles]
    for model in trained:
        counters, looped_counters = {}, {}
        batched = predict(model, scens, counters=counters)
        looped = np.vstack([reconstruct(model, s, counters=looped_counters) for s in scens])
        assert batched.shape == (len(scens), DESK_GRID.n_points)
        assert counters == looped_counters
        if model.spec.arch == "sp":
            np.testing.assert_array_equal(batched, looped)
        else:
            # a P-row matmul rounds differently from a 1-row one in the last
            # bits, so agreement is relative to the profiles' depth scale
            scale = np.abs(looped).max()
            np.testing.assert_allclose(batched, looped, rtol=0.0, atol=1e-12 * scale)
        for k in range(0, len(scens), 7):
            np.testing.assert_array_equal(looped[k], reference_profile(model, scens[k]))


def test_reconstruct_sp_zero_net_is_flat(small_ds):
    model = zero_net_model(small_ds, "sp", 2.5)
    scen = small_ds.profiles[0].scenario
    np.testing.assert_array_equal(reconstruct(model, scen), np.full(31, 2.5))


def test_reconstruct_sp_matches_view_forward(small_ds, sp_model):
    view = view_sp(small_ds, "test")
    all_preds = forward(sp_model.params, view.inputs)[0][:, 0]
    batched = predict(sp_model, [small_ds.profiles[i].scenario for i in small_ds.indices("test")])
    for k, i in enumerate(small_ds.indices("test")):
        rows = np.repeat(small_ds.indices("test"), small_ds.grid.n_points) == i
        # bitwise equal to a same-shape forward pass on the view's own rows;
        # BLAS kernels round differently per batch shape, so the full-view
        # pass is only equal to machine precision
        np.testing.assert_array_equal(
            batched[k], forward(sp_model.params, view.inputs[rows])[0][:, 0]
        )
        np.testing.assert_allclose(batched[k], all_preds[rows], rtol=0, atol=1e-12)


@pytest.mark.parametrize("arch", ["sp", "int", "vts"])
def test_predict_input_rows_equal_view_rows_bitwise(small_ds, arch, monkeypatch):
    # predict and the training views encode a scenario one way: [x | params]
    # for sp, [h | params] for int, [params] for vts
    idx = small_ds.indices("test")
    view = {"sp": view_sp, "int": view_int, "vts": view_vts}[arch](small_ds, "test")
    seen = []

    def spy(params, inputs):
        seen.append(inputs.copy())
        return forward(params, inputs)

    monkeypatch.setattr(models, "forward", spy)
    predict(zero_net_model(small_ds, arch, 1.0), [small_ds.profiles[i].scenario for i in idx])
    if arch == "sp":  # one forward per profile, profile-major like the view
        expected, got = view.inputs, np.vstack(seen)
    elif arch == "int":  # depth 0 is the weir depth: the first step is each profile's first pair
        expected, got = view.inputs[:: small_ds.grid.n_points - 1], seen[0]
    else:
        (got,) = seen
        expected = view.inputs
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_reconstruct_sp_accepts_off_grid_stations(small_ds, sp_model):
    scens = [small_ds.profiles[i].scenario for i in (0, 1)]
    off_grid = GridSpec(dx=7.5, length=300.0)
    assert predict(sp_model, scens, off_grid).shape == (2, 41)


def test_reconstruct_int_imposes_weir_boundary(small_ds):
    model = zero_net_model(small_ds, "int", 2.0)
    scens = [small_ds.profiles[i].scenario for i in (0, 5, 11)]
    profiles = predict(model, scens)
    for scen, profile in zip(scens, profiles):
        assert profile[0] == weir_depth(scen)
        np.testing.assert_array_equal(profile[1:], 2.0)


def test_reconstruct_int_clamps_and_counts(small_ds):
    model = zero_net_model(small_ds, "int", -1.0)
    counters = {}
    profiles = predict(model, [p.scenario for p in small_ds.profiles[:4]], counters=counters)
    assert counters == {"clamped": 4 * 30}
    np.testing.assert_array_equal(profiles[:, 1:], MIN_DEPTH)


def test_reconstruct_int_caps_runaway_depths(small_ds):
    scens = [p.scenario for p in small_ds.profiles]
    caps = np.array([2.0 * max(weir_depth(s), normal_depth(s)) for s in scens])
    # an output between the caps: the shallow channels are capped, the rest not
    model = zero_net_model(small_ds, "int", np.median(caps))
    counters, looped = {}, {}
    profiles = predict(model, scens, counters=counters)
    for scen in scens:
        reconstruct(model, scen, counters=looped)
    capped = caps < np.median(caps)
    assert counters == looped == {"capped": 30 * int(capped.sum())}
    np.testing.assert_array_equal(profiles[capped, 1:], np.repeat(caps[capped, None], 30, axis=1))
    np.testing.assert_array_equal(profiles[~capped, 1:], np.median(caps))


def test_reconstruct_int_passes_nan_through(small_ds):
    model = zero_net_model(small_ds, "int", np.nan)
    counters = {}
    profiles = predict(model, [p.scenario for p in small_ds.profiles[:3]], counters=counters)
    assert counters == {}
    assert np.isnan(profiles[:, 1:]).all()
    assert np.isfinite(profiles[:, 0]).all()


def test_reconstruct_int_needs_the_training_dx(small_ds):
    model = zero_net_model(small_ds, "int", 2.0)
    scens = [small_ds.profiles[0].scenario]
    with pytest.raises(ValueError, match=r"dx = 10 m, not dx = 5 m"):
        predict(model, scens, GridSpec(5.0, 300.0))
    assert predict(model, scens, GridSpec(10.0, 500.0)).shape == (1, 51)


def test_reconstruct_vts_shape_and_bias(small_ds):
    rng = np.random.default_rng(3)
    bias = rng.uniform(0.5, 4.0, 31)
    model = zero_net_model(small_ds, "vts", bias)
    profile = reconstruct(model, small_ds.profiles[2].scenario)
    assert profile.shape == (31,)
    np.testing.assert_array_equal(profile, bias)


def test_reconstruct_vts_rejects_other_grids(small_ds):
    model = zero_net_model(small_ds, "vts", 1.0)
    with pytest.raises(ValueError):
        predict(model, [small_ds.profiles[0].scenario], GridSpec(5.0, 300.0))


def test_reconstruct_checks_architecture(small_ds):
    # reconstruct takes each architecture's own path, bit for bit
    scen = small_ds.profiles[0].scenario
    rng = np.random.default_rng(4)
    for arch in ("sp", "int", "vts"):
        model = zero_net_model(small_ds, arch, 1.0)
        for w in model.params.weights:
            w[:] = rng.normal(0.0, 0.2, w.shape)
        np.testing.assert_array_equal(reconstruct(model, scen), reference_profile(model, scen))
        assert predict(model, []).shape == (0, 31)


# ---------------------------------------------------------------- #
#  Training
# ---------------------------------------------------------------- #


def test_train_history_schema(sp_model):
    assert len(sp_model.history) > 0
    row = sp_model.history[0]
    assert set(row) == {"epoch", "train_loss", "val_loss", "lr"}
    assert row["epoch"] == 0
    assert row["lr"] == 1e-3
    assert sp_model.diagnostics["diverged"] is False


def test_train_is_deterministic(small_ds):
    spec = ModelSpec("sp", width=8)
    config = TrainConfig(max_epochs=8, batch_size=64, seed=3)
    a = train(spec, small_ds, config)
    b = train(spec, small_ds, config)
    assert a.history == b.history
    for wa, wb in zip(a.params.weights, b.params.weights):
        np.testing.assert_array_equal(wa, wb)


def bits(value):
    """Shape and bytes of an array or scalar, for bitwise comparison."""
    value = np.asarray(value)
    return value.shape, value.tobytes()


def test_epoch_minibatches_are_shuffled_then_sliced_rows(small_ds, monkeypatch):
    # Each epoch's minibatches are the rows and targets of the view shuffled by
    # that epoch's seed and then cut into consecutive slices; the physics term
    # gets the run's physics_constants gathered at the same rows.
    seen_inputs, seen_physics = [], []
    real_forward, real_physics = models.forward, models._physics_term

    def spy_forward(params, inputs):
        seen_inputs.append(inputs.copy())
        return real_forward(params, inputs)

    def spy_physics(strategy, pred, true, consts):
        seen_physics.append((true.copy(), [a.copy() for a in consts]))
        return real_physics(strategy, pred, true, consts)

    monkeypatch.setattr(models, "forward", spy_forward)
    monkeypatch.setattr(models, "_physics_term", spy_physics)
    config = TrainConfig(max_epochs=2, batch_size=64, seed=4)
    cases = (
        ("sp", "en", view_sp),
        ("int", "fr", view_int),
        ("vts", "vol", view_vts),
        ("vts", "pde", view_vts),
    )
    for arch, strategy, view in cases:
        seen_inputs.clear()
        seen_physics.clear()
        train(ModelSpec(arch, strategy, 0.5, 8), small_ds, config)
        full, val = view(small_ds, "train"), view(small_ds, "val")
        consts = physics_constants(strategy, full.aux, full.targets)
        assert len(consts) == {"en": 5, "fr": 6, "vol": 0, "pde": 8}[strategy]
        want_inputs, want_physics = [], []
        for seed in np.random.SeedSequence(config.seed).generate_state(config.max_epochs):
            order = np.random.default_rng(int(seed)).permutation(len(full))
            inputs, targets = full.inputs[order], full.targets[order]
            shuffled = [a[order] for a in consts]
            for start in range(0, len(full), config.batch_size):
                sl = slice(start, start + config.batch_size)
                want_inputs.append(inputs[sl])
                want_physics.append((targets[sl], [a[sl] for a in shuffled]))
            want_inputs.append(val.inputs)  # the validation pass that ends the epoch
        assert [bits(a) for a in seen_inputs] == [bits(a) for a in want_inputs]
        assert len(seen_physics) == len(want_physics)
        for (got_targets, got_consts), (targets, batch_consts) in zip(seen_physics, want_physics):
            assert bits(got_targets) == bits(targets)
            assert [bits(a) for a in got_consts] == [bits(a) for a in batch_consts]


def reference_train(spec, ds, config):
    """models.train written plainly: per-batch aux dicts, the oracle losses
    on the validated point functions, and a fresh gradient per backward."""
    view = {"sp": view_sp, "int": view_int, "vts": view_vts}[spec.arch]
    train_view, val_view = view(ds, "train"), view(ds, "val")
    n = len(train_view)
    params = init(spec.layer_sizes(ds.grid.n_points), config.seed)
    adam = AdamState(params, config.initial_lr)
    plateau = ReduceLROnPlateau(config.lr_factor, config.lr_patience, config.min_lr)
    epoch_seeds = np.random.SeedSequence(config.seed).generate_state(config.max_epochs)
    best_params, best_val, best_epoch = params.copy(), np.inf, 0
    lr, history, clamp_events, stopped_epoch = config.initial_lr, [], 0, None
    for epoch in range(config.max_epochs):
        order = np.random.default_rng(int(epoch_seeds[epoch])).permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            yb = train_view.targets[rows]
            out, cache = forward(params, train_view.inputs[rows])
            aux = {k: v[rows] if isinstance(v, np.ndarray) else v for k, v in train_view.aux.items()}
            phys, d_phys, clamped = reference_losses.physics_term(spec.strategy, out, yb, aux)
            clamp_events += clamped
            total = spec.lam * mse(out, yb) + (1.0 - spec.lam) * phys
            d_out = spec.lam * dmse_dpred(out, yb) + (1.0 - spec.lam) * d_phys
            adam_step(adam, params, backward(params, cache, d_out))
            losses.append(total)
        val_loss = mse(forward(params, val_view.inputs)[0], val_view.targets)
        history.append(
            {"epoch": epoch, "train_loss": float(np.mean(losses)), "val_loss": float(val_loss), "lr": lr}
        )
        if val_loss < best_val:
            best_params, best_val, best_epoch = params.copy(), float(val_loss), epoch
        lr = adam.lr = plateau.update(val_loss, lr)
        if epoch - best_epoch >= config.early_stop_patience:
            stopped_epoch = epoch
            break
    diagnostics = {
        "best_epoch": best_epoch,
        "best_val_loss": best_val,
        "clamp_events": clamp_events,
        "diverged": False,
        "stopped_epoch": stopped_epoch,
        "epochs_run": len(history),
        "config": asdict(config),
    }
    return history, diagnostics, best_params.flat


@pytest.mark.parametrize(
    "arch,strategy,lam", [("sp", "en", 0.5), ("int", "fr", 0.3), ("vts", "fr", 0.5), ("vts", "pde", 0.5)]
)
def test_train_equals_reference_trainer_bitwise(small_ds, arch, strategy, lam):
    spec = ModelSpec(arch, strategy, lam, 8)
    # a high rate makes int-fr reach both the plateau cut and the early stop
    config = TrainConfig(
        initial_lr=1e-2, lr_patience=1, early_stop_patience=3, max_epochs=12, batch_size=16, seed=6
    )
    model = train(spec, small_ds, config)
    history, diagnostics, flat = reference_train(spec, small_ds, config)
    assert pickle.dumps(model.history) == pickle.dumps(history)
    assert pickle.dumps(model.diagnostics) == pickle.dumps(diagnostics)
    assert bits(model.params.flat) == bits(flat)
    assert model.diagnostics["clamp_events"] > 0  # the floor path is covered
    if (arch, strategy) == ("int", "fr"):
        assert model.diagnostics["stopped_epoch"] is not None
        assert model.history[-1]["lr"] < config.initial_lr


def test_train_reuses_one_gradient_buffer(small_ds, monkeypatch):
    # backward into a reused buffer equals a fresh gradient ...
    params = init([6, 8, 8, 1], seed=2)
    rng = np.random.default_rng(3)
    buffer = NetworkParams(params.layer_sizes, np.full_like(params.flat, np.nan))
    for rows in (5, 9):
        out, cache = forward(params, rng.normal(size=(rows, 6)))
        d_out = rng.normal(size=out.shape)
        fresh = backward(params, cache, d_out)
        assert backward(params, cache, d_out, buffer) is buffer.flat
        assert bits(buffer.flat) == bits(fresh)
    # ... and train builds NetworkParams only for init, that buffer and the
    # best-weights copies, never per step.
    built = []
    real_post_init = NetworkParams.__post_init__

    def counting_post_init(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(NetworkParams, "__post_init__", counting_post_init)
    model = train(ModelSpec("sp", "en", 0.5, 8), small_ds, TrainConfig(max_epochs=4, batch_size=64, seed=0))
    vals = [row["val_loss"] for row in model.history]
    improvements = sum(v < min(vals[:k], default=np.inf) for k, v in enumerate(vals))
    assert len(built) == 3 + improvements


def test_any_strategy_at_lambda_one_matches_dd(small_ds):
    config = TrainConfig(max_epochs=8, batch_size=64, seed=1)
    dd = train(ModelSpec("sp", strategy="dd", width=8), small_ds, config)
    en = train(ModelSpec("sp", strategy="en", lam=1.0, width=8), small_ds, config)
    assert dd.history == en.history
    for wa, wb in zip(dd.params.weights, en.params.weights):
        np.testing.assert_array_equal(wa, wb)


def test_train_beats_mean_predictor(small_ds):
    spec = ModelSpec("sp", width=16)
    config = TrainConfig(initial_lr=1e-2, max_epochs=120, batch_size=64, seed=0)
    model = train(spec, small_ds, config)
    from backwater.data import view_sp as _view

    train_mean = _view(small_ds, "train").targets.mean()
    val_targets = _view(small_ds, "val").targets
    baseline = float(np.mean((val_targets - train_mean) ** 2))
    assert model.diagnostics["best_val_loss"] < baseline


def test_train_loss_tends_downward_early(small_ds):
    spec = ModelSpec("sp", width=8)
    wins = 0
    for seed in (0, 1, 2):
        config = TrainConfig(max_epochs=10, batch_size=64, seed=seed)
        hist = train(spec, small_ds, config).history
        wins += hist[9]["train_loss"] <= hist[0]["train_loss"]
    assert wins >= 2


@pytest.mark.parametrize(
    "arch,strategy",
    [("sp", "en"), ("int", "fr"), ("vts", "vol"), ("vts", "bc"), ("vts", "pde"), ("vts", "en")],
)
def test_physics_strategies_train_finite(small_ds, arch, strategy):
    spec = ModelSpec(arch, strategy=strategy, lam=0.5, width=8)
    config = TrainConfig(max_epochs=3, batch_size=64, seed=0)
    model = train(spec, small_ds, config)
    assert len(model.history) == 3
    assert all(np.isfinite(r["train_loss"]) for r in model.history)
    assert model.diagnostics["diverged"] is False


def test_train_aborts_on_divergence(small_ds):
    spec = ModelSpec("sp", width=8)
    # Adam steps are bounded by lr, so the lr must be absurd enough that one
    # step sends the four-layer product past float64 range.
    config = TrainConfig(initial_lr=1e80, max_epochs=50, batch_size=64, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        model = train(spec, small_ds, config)
    assert model.diagnostics["diverged"] is True
    assert model.diagnostics["epochs_run"] < 50
    # the returned checkpoint is still usable
    profile = reconstruct(model, small_ds.profiles[0].scenario)
    assert np.all(np.isfinite(profile))


@pytest.mark.parametrize("arch,strategy", [("sp", "en"), ("int", "fr"), ("vts", "pde")])
def test_physics_runs_diverge_without_raising(small_ds, arch, strategy):
    # a non-finite prediction ends the run before the physics terms' depth checks
    spec = ModelSpec(arch, strategy=strategy, lam=0.5, width=8)
    config = TrainConfig(initial_lr=1e80, max_epochs=50, batch_size=64, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        model = train(spec, small_ds, config)
    assert model.diagnostics["diverged"] is True
    assert model.diagnostics["epochs_run"] < 50


def test_best_weights_reproduce_best_val_loss(small_ds):
    from backwater.data import view_sp as _view
    from backwater.network import mse

    spec = ModelSpec("sp", width=8)
    model = train(spec, small_ds, TrainConfig(max_epochs=15, batch_size=64, seed=2))
    view = _view(small_ds, "val")
    val = mse(forward(model.params, view.inputs)[0], view.targets)
    assert val == pytest.approx(model.diagnostics["best_val_loss"], rel=1e-12)
    assert min(r["val_loss"] for r in model.history) == model.diagnostics["best_val_loss"]


# ---------------------------------------------------------------- #
#  Checkpoints
# ---------------------------------------------------------------- #


def test_checkpoint_round_trip(tmp_path, small_ds, sp_model):
    path = tmp_path / "model.json"
    save_model(sp_model, path)
    loaded = load_model(path)
    assert loaded.spec == sp_model.spec
    assert loaded.history == sp_model.history
    scen = small_ds.profiles[4].scenario
    np.testing.assert_array_equal(reconstruct(loaded, scen), reconstruct(sp_model, scen))


def test_checkpoint_version_guard(tmp_path, sp_model):
    path = tmp_path / "model.json"
    save_model(sp_model, path)
    import json

    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_load_model_names_the_bad_field(tmp_path, sp_model):
    import json

    path = tmp_path / "model.json"
    save_model(sp_model, path)
    good = json.loads(path.read_text())
    network = dict(good["network"], weights=good["network"]["weights"][:-1])
    cases = (
        ({"format_version": 1, "spec": {}}, "malformed checkpoint field 'spec'"),
        ({k: v for k, v in good.items() if k != "grid"}, "'grid' is missing"),
        ({**good, "network": network}, "field 'network': expected 4 weights arrays, got 3"),
        ({**good, "scaler": {"mean": {}}}, "malformed checkpoint field 'scaler'"),
        ({**good, "grid": {"dx": 10.0, "length": 305.0}}, "malformed checkpoint field 'grid'"),
        ({**good, "history": {}}, "'history' is missing or not a JSON list"),
    )
    for payload, message in cases:
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_model(path)
