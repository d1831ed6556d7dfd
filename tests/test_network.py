"""Tests for the dense network engine: forward, backprop, Adam, schedules."""

import math

import numpy as np
import pytest

from backwater.network import (
    MIN_LR,
    AdamState,
    NetworkParams,
    ReduceLROnPlateau,
    TrainConfig,
    adam_step,
    backward,
    dmse_dpred,
    forward,
    forward_buffers,
    init,
    mse,
    mse_grad,
)


def relative_gap(analytic, numeric):
    denom = max(abs(analytic), abs(numeric), 1e-10)
    return abs(analytic - numeric) / denom


# ---------------------------------------------------------------- #
#  Initialization
# ---------------------------------------------------------------- #


def test_init_is_seed_deterministic():
    a = init([6, 16, 16, 1], seed=3)
    b = init([6, 16, 16, 1], seed=3)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_init_he_variance_and_zero_biases():
    params = init([64, 64, 1], seed=0)
    sample_var = np.var(params.weights[0])
    assert abs(sample_var - 2.0 / 64) <= 0.2 * (2.0 / 64)
    for b in params.biases:
        assert np.all(b == 0.0)


def test_init_matches_per_layer_draws_bitwise():
    sizes = [6, 16, 16, 16, 1]
    params = init(sizes, seed=7)
    rng = np.random.default_rng(7)
    for w, b, fan_in, fan_out in zip(params.weights, params.biases, sizes[:-1], sizes[1:]):
        want = rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, fan_out))
        assert w.tobytes() == want.tobytes()
        assert np.all(b == 0.0)


def test_weights_and_biases_view_the_flat_buffer():
    params = init([3, 4, 2], seed=1)
    assert params.flat.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    params.weights[1][2, 0] = 9.0
    params.biases[0][:] = -1.0
    assert params.flat[3 * 4 + 4 + 2 * 2] == 9.0
    np.testing.assert_array_equal(params.flat[12:16], -1.0)
    clone = params.copy()
    clone.flat[:] = 0.0
    assert params.weights[1][2, 0] == 9.0


def test_init_rejects_bad_widths():
    with pytest.raises(ValueError):
        init([6], seed=0)
    with pytest.raises(ValueError):
        init([6, 0, 1], seed=0)


# ---------------------------------------------------------------- #
#  Forward pass
# ---------------------------------------------------------------- #


def test_forward_zero_weights_outputs_bias():
    params = init([4, 8, 2], seed=0)
    for w in params.weights:
        w[:] = 0.0
    params.biases[-1][:] = [1.5, -2.0]
    out, _ = forward(params, np.random.default_rng(0).normal(size=(5, 4)))
    np.testing.assert_allclose(out, np.tile([1.5, -2.0], (5, 1)))


def test_forward_single_affine_layer_is_exact():
    params = init([3, 2], seed=1)
    x = np.random.default_rng(1).normal(size=(7, 3))
    out, _ = forward(params, x)
    np.testing.assert_allclose(out, x @ params.weights[0] + params.biases[0], atol=0)


def test_forward_matches_neuron_by_neuron_reimplementation():
    # Independent oracle: per-neuron loops, no matrix algebra.
    params = init([6, 16, 16, 1], seed=11)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(9, 6))
    out, _ = forward(params, x)
    for row in range(x.shape[0]):
        a = list(x[row])
        for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
            nxt = []
            for j in range(w.shape[1]):
                z = b[j] + sum(w[i, j] * a[i] for i in range(w.shape[0]))
                if layer < len(params.weights) - 1:
                    z = max(z, 0.0)
                nxt.append(z)
            a = nxt
        assert out[row, 0] == pytest.approx(a[0], abs=1e-12)


def test_forward_rejects_wrong_width():
    params = init([6, 4, 1], seed=0)
    with pytest.raises(ValueError):
        forward(params, np.zeros((3, 5)))
    with pytest.raises(ValueError, match="expected inputs"):
        forward(params, np.zeros(6))


@pytest.mark.parametrize("shape", [(5, 101), (2, 3, 7), (1, 1)])
def test_forward_over_leading_axes_equals_each_slice_bitwise(shape):
    # one network over (..., rows, fan_in) runs each (rows, fan_in) slice as its own call
    params = init([6, 16, 16, 16, 1], seed=4)
    params.biases[-1][...] = 0.25
    x = np.random.default_rng(8).normal(size=(*shape, 6))
    out, cache = forward(params, x)
    assert out.shape == (*shape, 1)
    assert cache["activations"][0] is x
    for index in np.ndindex(*shape[:-1]):
        assert out[index].tobytes() == forward(params, x[index])[0].tobytes()


def bits(value):
    """Shape and bytes of an array, for bitwise comparison."""
    return value.shape, value.tobytes()


@pytest.mark.parametrize("members,shape", [((), (9,)), ((), (3, 7)), ((2,), (5,))])
def test_forward_into_buffers_equals_a_fresh_forward_bitwise(members, shape):
    # one buffer set serves every call of its shape, and its leading slices fewer rows
    params = init([6, 16, 16, 16, 1], seed=4)
    if members:
        params = NetworkParams(params.layer_sizes, np.stack([params.flat, params.flat[::-1].copy()]))
    rng = np.random.default_rng(8)
    out = forward_buffers(params, (*members, *shape, 6))
    for layer in out:
        layer[...] = np.nan
    for rows in (shape[0], 1):
        x = rng.normal(size=(*members, *shape, 6))
        if not members:
            x = x[:rows]
        views = out if members else [layer[:rows] for layer in out]
        got, cache = forward(params, x, out=views)
        want, want_cache = forward(params, x)
        assert got is cache["activations"][-1]
        assert np.shares_memory(got, out[-1])
        assert [bits(a) for a in cache["activations"]] == [bits(a) for a in want_cache["activations"]]


# ---------------------------------------------------------------- #
#  Backpropagation
# ---------------------------------------------------------------- #


def test_backward_matches_central_differences():
    params = init([6, 8, 8, 1], seed=4)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 6))
    target = rng.normal(size=(12, 1))
    out, cache = forward(params, x)
    grad = NetworkParams(params.layer_sizes, backward(params, cache, dmse_dpred(out, target)))
    d_w, d_b = grad.weights, grad.biases

    eps = 1e-5
    for layer in range(len(params.weights)):
        w = params.weights[layer]
        probes = [(0, 0), (w.shape[0] // 2, w.shape[1] // 2), (w.shape[0] - 1, w.shape[1] - 1)]
        for idx in probes:
            orig = w[idx]
            w[idx] = orig + eps
            up = mse(forward(params, x)[0], target)
            w[idx] = orig - eps
            dn = mse(forward(params, x)[0], target)
            w[idx] = orig
            assert relative_gap(d_w[layer][idx], (up - dn) / (2 * eps)) <= 1e-5
        b = params.biases[layer]
        orig = b[0]
        b[0] = orig + eps
        up = mse(forward(params, x)[0], target)
        b[0] = orig - eps
        dn = mse(forward(params, x)[0], target)
        b[0] = orig
        assert relative_gap(d_b[layer][0], (up - dn) / (2 * eps)) <= 1e-5


def test_backward_zero_output_gradient():
    params = init([4, 8, 1], seed=2)
    x = np.random.default_rng(3).normal(size=(5, 4))
    _, cache = forward(params, x)
    grad = backward(params, cache, np.zeros((5, 1)))
    assert grad.shape == params.flat.shape
    assert np.all(grad == 0.0)


def test_backward_dead_relu_unit_gets_zero_gradient():
    params = init([2, 2, 1], seed=0)
    params.weights[0][:, 0] = -5.0  # unit 0 never activates on positive inputs
    params.biases[0][0] = 0.0
    x = np.abs(np.random.default_rng(4).normal(size=(6, 2))) + 0.1
    out, cache = forward(params, x)
    grad = NetworkParams(params.layer_sizes, backward(params, cache, np.ones_like(out)))
    assert np.all(grad.weights[0][:, 0] == 0.0)
    assert grad.biases[0][0] == 0.0


def test_flat_backward_matches_per_layer_products_bitwise():
    params = init([5, 16, 16, 16, 101], seed=8)
    rng = np.random.default_rng(9)
    out, cache = forward(params, rng.normal(size=(16, 5)))
    d_out = rng.normal(size=out.shape)
    grad = NetworkParams(params.layer_sizes, backward(params, cache, d_out))
    delta = d_out
    for layer in range(len(params.weights) - 1, -1, -1):
        assert grad.weights[layer].tobytes() == (cache["activations"][layer].T @ delta).tobytes()
        assert grad.biases[layer].tobytes() == delta.sum(axis=0).tobytes()
        if layer > 0:
            # the ReLU mask of the layer's output, as positive as its pre-activation
            z = cache["activations"][layer - 1] @ params.weights[layer - 1] + params.biases[layer - 1]
            assert ((cache["activations"][layer] > 0.0) == (z > 0.0)).all()
            delta = (delta @ params.weights[layer].T) * (z > 0.0)


def test_backward_shape_guard():
    params = init([4, 8, 1], seed=2)
    _, cache = forward(params, np.zeros((5, 4)))
    with pytest.raises(ValueError):
        backward(params, cache, np.zeros((4, 1)))


# ---------------------------------------------------------------- #
#  MSE
# ---------------------------------------------------------------- #


def test_mse_identities():
    x = np.arange(6.0).reshape(2, 3)
    assert mse(x, x) == 0.0
    assert mse(x + 1.0, x) == 1.0
    with pytest.raises(ValueError):
        mse(np.zeros(3), np.zeros(4))


def test_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    pred = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 3))
    grad = dmse_dpred(pred, target)
    eps = 1e-6
    for idx in [(0, 0), (1, 2), (3, 1)]:
        bumped = pred.copy()
        bumped[idx] += eps
        up = mse(bumped, target)
        bumped[idx] -= 2 * eps
        dn = mse(bumped, target)
        assert relative_gap(grad[idx], (up - dn) / (2 * eps)) <= 1e-8


# ---------------------------------------------------------------- #
#  Adam
# ---------------------------------------------------------------- #


def scalar_params(w: float) -> NetworkParams:
    """A [1, 1] network: one weight, one bias."""
    return NetworkParams([1, 1], np.array([w, 0.0]))


def test_adam_first_step_identity():
    # With bias correction, step 1 moves each parameter by ~ -lr * sign(g).
    params = scalar_params(1.7)
    state = AdamState(params, lr=0.01)
    adam_step(state, params, np.array([-0.37, 0.0]))
    assert params.weights[0][0, 0] - 1.7 == pytest.approx(0.01, rel=1e-6)


def test_adam_zero_gradients_leave_params_unchanged():
    params = init([3, 4, 1], seed=6)
    before = params.copy()
    state = AdamState(params, lr=0.1)
    for _ in range(50):
        adam_step(state, params, np.zeros_like(params.flat))
    for w0, w1 in zip(before.weights, params.weights):
        np.testing.assert_array_equal(w0, w1)


def test_adam_converges_on_scalar_quadratic():
    # Oracle run: minimize (w - 3)^2 from w = 0 with lr = 0.1.
    params = scalar_params(0.0)
    state = AdamState(params, lr=0.1)
    for _ in range(200):
        w = params.weights[0][0, 0]
        adam_step(state, params, np.array([2.0 * (w - 3.0), 0.0]))
    assert abs(params.weights[0][0, 0] - 3.0) < 0.05


def test_adam_rejects_non_finite_gradients():
    params = init([2, 2, 1], seed=0)
    before = params.copy()
    state = AdamState(params, lr=0.01)
    bad = np.zeros_like(params.flat)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(state, params, bad)
    assert state.step == 0
    np.testing.assert_array_equal(params.flat, before.flat)


def test_adam_flushes_subnormal_first_moments_and_moves_no_parameter():
    # one gradient, then 7500 zero ones: unflushed, m decays into the
    # subnormal range and stops there; flushed, it is exactly 0
    params = scalar_params(1.7)
    weights, biases = [params.weights[0].copy()], [params.biases[0].copy()]
    ref = {"step": 0, "lr": 0.01, "m_w": [np.zeros((1, 1))], "v_w": [np.zeros((1, 1))],
           "m_b": [np.zeros(1)], "v_b": [np.zeros(1)]}
    state = AdamState(params, lr=0.01)
    for grad in [np.array([0.37, -2.0])] + [np.zeros(2)] * 7500:
        layered = NetworkParams([1, 1], grad)
        reference_adam_step(ref, weights, biases, layered.weights, layered.biases)
        adam_step(state, params, grad)
    unflushed = np.concatenate([ref["m_w"][0].ravel(), ref["m_b"][0]])
    assert ((0.0 < np.abs(unflushed)) & (np.abs(unflushed) < np.finfo(float).tiny)).all()
    assert state.m.tobytes() == np.zeros(2).tobytes()
    assert params.flat.tobytes() == np.concatenate([weights[0].ravel(), biases[0]]).tobytes()


def reference_adam_step(state, weights, biases, d_weights, d_biases, beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-layer Adam on separate weight and bias arrays, the form flat Adam replaces."""
    state["step"] += 1
    t = state["step"]
    corr1 = 1.0 - beta1 ** t
    corr2 = 1.0 - beta2 ** t
    for pairs in (
        zip(weights, d_weights, state["m_w"], state["v_w"]),
        zip(biases, d_biases, state["m_b"], state["v_b"]),
    ):
        for value, grad, m, v in pairs:
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            value -= state["lr"] * (m / corr1) / (np.sqrt(v / corr2) + eps)


@pytest.mark.parametrize("sizes", [[6, 16, 16, 16, 1], [5, 16, 16, 16, 101]])
def test_flat_adam_matches_per_layer_reference_bitwise(sizes):
    params = init(sizes, seed=2)
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    ref = {
        "step": 0,
        "lr": 0.01,
        "m_w": [np.zeros_like(w) for w in weights],
        "v_w": [np.zeros_like(w) for w in weights],
        "m_b": [np.zeros_like(b) for b in biases],
        "v_b": [np.zeros_like(b) for b in biases],
    }
    state = AdamState(params, lr=0.01)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(16, sizes[0]))
    target = rng.normal(size=(16, sizes[-1]))
    for step in range(60):
        if step == 30:  # a plateau cut mid-run
            state.lr = ref["lr"] = 0.005
        out, cache = forward(params, x)
        grad = backward(params, cache, dmse_dpred(out, target))
        layered = NetworkParams(params.layer_sizes, grad)
        reference_adam_step(ref, weights, biases, layered.weights, layered.biases)
        adam_step(state, params, grad)
        for got, want in zip(params.weights + params.biases, weights + biases):
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- #
#  Schedules
# ---------------------------------------------------------------- #


def test_plateau_keeps_lr_while_improving():
    sched = ReduceLROnPlateau(patience=10)
    lr = 1e-3
    for loss in np.linspace(1.0, 0.1, 30):
        lr = sched.update(loss, lr)
    assert lr == 1e-3


def test_plateau_halves_after_ten_flat_epochs():
    sched = ReduceLROnPlateau(patience=10)
    lr = sched.update(1.0, 1e-3)  # baseline best
    for _ in range(9):
        lr = sched.update(1.0, lr)
        assert lr == 1e-3
    lr = sched.update(1.0, lr)  # tenth stalled epoch
    assert lr == 5e-4


def test_plateau_floors_at_min_lr():
    sched = ReduceLROnPlateau(patience=2)
    lr = 1e-3
    for _ in range(100):
        lr = sched.update(1.0, lr)
    assert lr == 1e-5


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr_patience=0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    for batch_size in (0, -4):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=batch_size)
    for lr in (-0.01, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="initial_lr"):
            TrainConfig(initial_lr=lr)
    assert TrainConfig(batch_size=1, initial_lr=1e80).batch_size == 1
    # a rate below the plateau's floor would make a plateau raise it
    with pytest.raises(ValueError, match="initial_lr"):
        TrainConfig(initial_lr=MIN_LR / 2)
    assert TrainConfig(initial_lr=MIN_LR).initial_lr == MIN_LR


def test_params_dict_round_trip():
    params = init([5, 7, 3], seed=9)
    back = NetworkParams.from_dict(params.to_dict())
    assert back.layer_sizes == params.layer_sizes
    for a, b in zip(back.weights, params.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(back.biases, params.biases):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_dict_loads_to_a_bitwise_equal_forward():
    # The checkpoint format: per-layer row-major weight lists and bias lists.
    rng = np.random.default_rng(21)
    sizes = [6, 16, 16, 16, 1]
    weights = [rng.normal(size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.normal(size=b) for b in sizes[1:]]
    saved = {
        "layer_sizes": sizes,
        "weights": [w.ravel().tolist() for w in weights],
        "biases": [b.tolist() for b in biases],
    }
    params = NetworkParams.from_dict(saved)
    assert params.to_dict() == saved
    x = rng.normal(size=(9, 6))
    a = x
    for layer, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if layer < len(weights) - 1:
            a = np.maximum(a, 0.0)
    assert forward(params, x)[0].tobytes() == a.tobytes()



# ---------------------------------------------------------------- #
#  Stacks: a leading member axis
# ---------------------------------------------------------------- #


def stack_of(members: list[NetworkParams]) -> NetworkParams:
    return NetworkParams(members[0].layer_sizes, np.stack([m.flat for m in members]))


def member(stack: NetworkParams, s: int) -> NetworkParams:
    return NetworkParams(stack.layer_sizes, stack.flat[s].copy())


def test_stacked_views_are_per_member_views_of_one_buffer():
    stack = stack_of([init([3, 4, 2], seed=s) for s in (1, 2, 3)])
    assert [w.shape for w in stack.weights] == [(3, 3, 4), (3, 4, 2)]
    assert [b.shape for b in stack.biases] == [(3, 4), (3, 2)]
    stack.weights[1][2, 3, 0] = 9.0
    assert stack.flat[2, 3 * 4 + 4 + 3 * 2] == 9.0
    for s in range(3):
        alone = member(stack, s)
        for got, want in zip(stack.weights + stack.biases, alone.weights + alone.biases):
            assert got[s].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="per member"):
        NetworkParams([3, 4, 2], np.zeros((2, 3, 38)))


@pytest.mark.parametrize("sizes,rows", [([6, 16, 16, 16, 1], 16), ([6, 16, 16, 16, 1], 7), ([5, 16, 16, 16, 101], 16)])
def test_stacked_forward_backward_equal_each_member_alone_bitwise(sizes, rows):
    rng = np.random.default_rng(13)
    stack = stack_of([init(sizes, seed=s) for s in range(4)])
    x = rng.normal(size=(4, rows, sizes[0]))
    target = rng.normal(size=(4, rows, sizes[-1]))
    out, cache = forward(stack, x)
    d_out = dmse_dpred(out, target)
    grad = backward(stack, cache, d_out)
    assert out.shape == (4, rows, sizes[-1]) and grad.shape == stack.flat.shape
    losses = mse_grad(out, target)[0]  # the stacked data term training runs
    assert losses.shape == (4,)
    for s in range(4):
        alone = member(stack, s)
        out_s, cache_s = forward(alone, x[s])
        assert out[s].tobytes() == out_s.tobytes()
        assert losses[s] == mse(out_s, target[s])
        assert d_out[s].tobytes() == dmse_dpred(out_s, target[s]).tobytes()
        assert grad[s].tobytes() == backward(alone, cache_s, d_out[s]).tobytes()
    with pytest.raises(ValueError, match="expected inputs"):
        forward(stack, x[0])


def test_stacked_adam_equals_each_member_alone_bitwise():
    sizes = [6, 16, 16, 16, 1]
    stack = stack_of([init(sizes, seed=s) for s in range(3)])
    alone = [member(stack, s) for s in range(3)]
    rates = [0.01, 0.003, 0.02]
    state = AdamState(stack, np.array([[lr] for lr in rates]))
    states = [AdamState(p, lr) for p, lr in zip(alone, rates)]
    rng = np.random.default_rng(5)
    for step in range(40):
        if step == 20:  # one member's plateau cut
            state.lr[1, 0] = states[1].lr = 0.0015
        grad = rng.normal(size=stack.flat.shape)
        adam_step(state, stack, grad)
        for s in range(3):
            adam_step(states[s], alone[s], grad[s].copy())
            assert stack.flat[s].tobytes() == alone[s].flat.tobytes()
    grad = np.zeros_like(stack.flat)
    grad[2, 0] = np.inf
    before = stack.copy()
    with pytest.raises(ValueError, match="non-finite"):
        adam_step(state, stack, grad)
    assert stack.flat.tobytes() == before.flat.tobytes()
