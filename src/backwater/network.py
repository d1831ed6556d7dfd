"""Minimal dense feed-forward network with exact backpropagation.

Hidden layers use ReLU (subgradient 0 at 0), the output layer is linear.
Training utilities are Adam with bias correction and a ReduceLROnPlateau
scheduler, whose factor and floor are the constants :data:`PLATEAU_FACTOR`
and :data:`MIN_LR`; early stopping and the best-weights checkpoint live in
:func:`backwater.models.train_stack`.  Everything is plain numpy and
deterministic for a given seed.

Parameters, inputs and gradients may carry a leading member axis: a stack of
S networks with equal layer sizes is one ``(S, P)`` buffer, and
:func:`forward`, :func:`backward`, :func:`dmse_dpred`, :func:`mse_grad`
and :func:`adam_step` treat each member as if it were alone (:func:`mse`
scores one network's validation pass); :func:`member_means` is the
per-member mean they and the stacked physics kernels share.  Stacked products are ``np.matmul`` over
``(S, rows, fan_in) x (S, fan_in, fan_out)``, which BLAS computes slice by
slice, so every member's values are bitwise those of its own 2-D call
(``einsum`` would not be).  For the same reason one network's
:func:`forward` takes inputs with any leading axes, such as a block of
profiles, each (rows, fan_in) slice bitwise its own call.  A caller that
runs many forwards of one shape (a reconstruction, a validation pass per
epoch) passes one set of :func:`forward_buffers` to all of them, as a
training loop passes one gradient buffer to :func:`backward`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
#: How far a validation loss must beat the best so far to reset the plateau.
PLATEAU_MIN_DELTA = 1e-8
#: What a plateau multiplies the learning rate by, and the floor it stops at.
PLATEAU_FACTOR = 0.5
MIN_LR = 1e-5
#: The smallest normal float64; Adam flushes first moments below it to 0.
_TINY = np.finfo(float).tiny


@dataclass
class NetworkParams:
    """Layer sizes plus every weight and bias in one flat float64 buffer.

    The buffer holds W0, b0, W1, b1, ... in order, each weight matrix
    row-major.  ``weights[i]`` (fan_in, fan_out) and ``biases[i]`` (fan_out,)
    are views into it, so editing a view edits the buffer and whole-network
    updates are single array operations on ``flat``.  A stack of S networks
    has a ``(S, P)`` buffer, one row per member, and ``(S, fan_in, fan_out)``
    and ``(S, fan_out)`` views.
    """

    layer_sizes: list[int]
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        sizes = self.layer_sizes
        size = _n_params(sizes)
        if (
            self.flat.dtype != np.float64
            or self.flat.ndim not in (1, 2)
            or self.flat.shape[-1] != size
        ):
            raise ValueError(f"expected a flat float64 buffer of {size} values per member")
        members = self.flat.shape[:-1]
        self.weights, self.biases = [], []
        start = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            stop = start + fan_in * fan_out
            self.weights.append(self.flat[..., start:stop].reshape(*members, fan_in, fan_out))
            self.biases.append(self.flat[..., stop : stop + fan_out])
            start = stop + fan_out

    def copy(self) -> "NetworkParams":
        return NetworkParams(list(self.layer_sizes), self.flat.copy())

    def to_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkParams":
        sizes = list(d["layer_sizes"])
        params = cls(sizes, np.zeros(_n_params(sizes)))
        for key, views in (("weights", params.weights), ("biases", params.biases)):
            if len(d[key]) != len(views):
                raise ValueError(f"expected {len(views)} {key} arrays, got {len(d[key])}")
            for layer, (view, values) in enumerate(zip(views, d[key])):
                values = np.asarray(values, dtype=float)
                if values.size != view.size:
                    raise ValueError(f"{key}[{layer}] has {values.size} values, expected {view.size}")
                view[...] = values.reshape(view.shape)
        return params


def _n_params(layer_sizes: list[int]) -> int:
    """Weights plus biases of a dense network with these layer widths."""
    if len(layer_sizes) < 2 or any(w < 1 for w in layer_sizes):
        raise ValueError("layer_sizes needs >= 2 entries, all widths >= 1")
    return sum(a * b + b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


def init(layer_sizes: list[int], seed: int) -> NetworkParams:
    """He-scaled random weights (variance 2/fan_in), zero biases."""
    params = NetworkParams(list(layer_sizes), np.zeros(_n_params(layer_sizes)))
    rng = np.random.default_rng(seed)
    for w in params.weights:
        w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), w.shape)
    return params


def forward(params: NetworkParams, inputs: np.ndarray, out: list[np.ndarray] | None = None):
    """Batched forward pass.

    Args:
        params: the network, or a stack of S networks.
        inputs: (..., batch, layer_sizes[0]) for one network, which treats
            each (batch, layer_sizes[0]) slice as its own call; or
            (S, batch, layer_sizes[0]) for a stack: member s reads ``inputs[s]``.
        out: optional per-layer output buffers from :func:`forward_buffers`
            for these inputs' shape, whose every value is overwritten; a
            caller that runs many forwards of one shape passes one set for
            all of them.  ``np.matmul(..., out=)`` makes the same BLAS call,
            so every value keeps its bits.

    Returns:
        (outputs, cache): outputs is (..., batch, layer_sizes[-1]), with the
        inputs' leading axes (``out[-1]`` when buffers are given); the cache
        keeps the inputs and every layer's activations for :func:`backward`.  A ReLU passes its
        gradient where its output is positive, which is where its
        pre-activation is, so the pre-activations are not kept: each layer
        writes its bias and ReLU into its product's buffer.
    """
    a = np.asarray(inputs, dtype=float)
    members = params.flat.shape[:-1]
    leading = members or a.shape[:-2]  # a single network takes any leading axes
    if a.ndim < 2 or a.shape[:-2] != leading or a.shape[-1] != params.layer_sizes[0]:
        expected = (*(members or ("...",)), "batch", params.layer_sizes[0])
        raise ValueError(f"expected inputs of shape {expected}, got {a.shape}")
    activations = [a]
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = np.matmul(a, w, out=None if out is None else out[layer])
        a += b[..., None, :]
        if layer != last:
            np.maximum(a, 0.0, out=a)
        activations.append(a)
    return a, {"activations": activations}


def forward_buffers(params: NetworkParams, inputs_shape: tuple[int, ...]) -> list[np.ndarray]:
    """Empty per-layer outputs for ``forward(params, inputs, out=...)`` on
    inputs of ``inputs_shape``; a leading slice ``[:rows]`` of each serves
    inputs with fewer rows on the first axis."""
    return [np.empty((*inputs_shape[:-1], width)) for width in params.layer_sizes[1:]]


def backward(
    params: NetworkParams, cache: dict, d_outputs: np.ndarray, grad: NetworkParams | None = None
) -> np.ndarray:
    """Exact gradients of (loss composed with the network) w.r.t. parameters.

    Args:
        params: the network (or stack) used in the matching forward call.
        cache: activation cache from that call.
        d_outputs: dLoss/dOutputs, shaped like that call's outputs.
        grad: optional buffer laid out like ``params`` whose every value is
            overwritten; a training loop passes one buffer for all its steps.

    Returns:
        One flat gradient laid out like ``params.flat`` (``grad.flat`` when a
        buffer is given); ``NetworkParams(params.layer_sizes, flat)`` views it
        per layer.
    """
    delta = np.asarray(d_outputs, dtype=float)
    activations = cache["activations"]
    if delta.shape != activations[-1].shape:
        raise ValueError("d_outputs shape does not match the cached forward pass")
    if grad is None:
        grad = NetworkParams(params.layer_sizes, np.empty_like(params.flat))
    for layer in range(len(params.weights) - 1, -1, -1):
        np.matmul(activations[layer].swapaxes(-1, -2), delta, out=grad.weights[layer])
        np.add.reduce(delta, axis=-2, out=grad.biases[layer])
        if layer > 0:
            delta = np.matmul(delta, params.weights[layer].swapaxes(-1, -2)) * (activations[layer] > 0.0)
    return grad.flat


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over all elements of a (batch, outputs) pair."""
    pred, target = np.asarray(pred, dtype=float), np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError("pred and target shapes differ")
    diff = pred - target
    return float(np.mean(diff * diff))


def member_means(values: np.ndarray) -> np.ndarray:
    """The mean of each member's slice of a stacked (S, ...) array: an (S,) array.

    Each is bitwise ``np.mean`` of that slice alone: the same pairwise sum
    over its contiguous values, divided by the same count.
    """
    return np.add.reduce(values.reshape(len(values), -1), axis=1) / math.prod(values.shape[1:])


def mse_grad(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mse` of a stack and its gradient :func:`dmse_dpred`, from one difference.

    ``pred`` and ``target`` are stacked (S, batch, outputs) float arrays of
    one shape, unchecked: the training step's own.
    """
    diff = pred - target
    return member_means(diff * diff), 2.0 * diff / math.prod(diff.shape[1:])


def dmse_dpred(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of :func:`mse`: 2 (pred - target) / N, N counted per member."""
    pred, target = np.asarray(pred, dtype=float), np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError("pred and target shapes differ")
    return 2.0 * (pred - target) / math.prod(pred.shape[-2:])


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings shared by all architectures."""

    initial_lr: float = 1e-3
    lr_patience: int = 10
    early_stop_patience: int = 20
    max_epochs: int = 1000
    batch_size: int | None = None  # None: per-architecture default
    seed: int = 0

    def __post_init__(self):
        if self.lr_patience < 1 or self.early_stop_patience < 1:
            raise ValueError("patiences must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for the default)")
        # a rate below the floor would make a plateau raise it
        if not (math.isfinite(self.initial_lr) and self.initial_lr >= MIN_LR):
            raise ValueError(f"initial_lr must be finite and at least MIN_LR = {MIN_LR:g}")


class AdamState:
    """Adam moment estimates, flat like ``NetworkParams.flat``.

    ``lr`` is a float, or an (S, 1) array of per-member rates for a stack.
    """

    def __init__(self, params: NetworkParams, lr):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.step = 0
        self.lr = lr


def adam_step(state: AdamState, params: NetworkParams, grad: np.ndarray) -> None:
    """One in-place Adam update with bias correction on the flat buffer.

    First moments below the smallest normal float are flushed to 0, so a
    weight whose gradient stays 0 costs no subnormal arithmetic.

    Raises:
        ValueError: on a non-finite gradient, before anything is updated.
    """
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    state.step += 1
    t = state.step
    corr1 = 1.0 - BETA1 ** t
    corr2 = 1.0 - BETA2 ** t
    state.m *= BETA1
    state.m += (1.0 - BETA1) * grad
    # A moment whose gradient stays 0 decays into the subnormal range, where
    # 0.9 * m rounds back to m and every later step runs slow subnormal
    # arithmetic; flushed to 0 it moves its parameter by 0, as it nearly did.
    np.copyto(state.m, 0.0, where=np.abs(state.m) < _TINY)
    state.v *= BETA2
    state.v += (1.0 - BETA2) * grad * grad
    params.flat -= state.lr * (state.m / corr1) / (np.sqrt(state.v / corr2) + EPS)


class ReduceLROnPlateau:
    """Scale the learning rate by `PLATEAU_FACTOR` after `patience` epochs without improvement.

    Improvement means the validation loss beats the best seen by more than
    `PLATEAU_MIN_DELTA`; a reduction resets the stall counter, and the rate
    never drops below `MIN_LR`.
    """

    def __init__(self, patience=10):
        self.patience = patience
        self.best = math.inf
        self.wait = 0

    def update(self, val_loss: float, lr: float) -> float:
        if val_loss < self.best - PLATEAU_MIN_DELTA:
            self.best = val_loss
            self.wait = 0
            return lr
        self.wait += 1
        if self.wait >= self.patience:
            self.wait = 0
            return max(lr * PLATEAU_FACTOR, MIN_LR)
        return lr
