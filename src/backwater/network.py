"""Minimal dense feed-forward network with exact backpropagation.

Hidden layers use ReLU (subgradient 0 at 0), the output layer is linear.
Training utilities are Adam with bias correction and a ReduceLROnPlateau
scheduler; early stopping and the best-weights checkpoint live in
:func:`backwater.models.train`.  Everything is plain numpy and
deterministic for a given seed.
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


@dataclass
class NetworkParams:
    """Layer sizes plus every weight and bias in one flat float64 buffer.

    The buffer holds W0, b0, W1, b1, ... in order, each weight matrix
    row-major.  ``weights[i]`` (fan_in, fan_out) and ``biases[i]`` (fan_out,)
    are views into it, so editing a view edits the buffer and whole-network
    updates are single array operations on ``flat``.
    """

    layer_sizes: list[int]
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        sizes = self.layer_sizes
        size = _n_params(sizes)
        if self.flat.dtype != np.float64 or self.flat.shape != (size,):
            raise ValueError(f"expected a flat float64 buffer of {size} values")
        self.weights, self.biases = [], []
        start = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            stop = start + fan_in * fan_out
            self.weights.append(self.flat[start:stop].reshape(fan_in, fan_out))
            self.biases.append(self.flat[stop : stop + fan_out])
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
        sizes = [int(v) for v in d["layer_sizes"]]
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


def forward(params: NetworkParams, inputs: np.ndarray):
    """Batched forward pass.

    Args:
        params: the network.
        inputs: (batch, layer_sizes[0]) array.

    Returns:
        (outputs, cache): outputs is (batch, layer_sizes[-1]); the cache keeps
        layer activations and pre-activations for :func:`backward`.
    """
    a = np.asarray(inputs, dtype=float)
    if a.ndim != 2 or a.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"expected inputs of shape (batch, {params.layer_sizes[0]}), got {a.shape}"
        )
    activations = [a]
    pre_acts = []
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        pre_acts.append(z)
        a = z if layer == last else np.maximum(z, 0.0)
        activations.append(a)
    return a, {"activations": activations, "pre_acts": pre_acts}


def backward(params: NetworkParams, cache: dict, d_outputs: np.ndarray) -> np.ndarray:
    """Exact gradients of (loss composed with the network) w.r.t. parameters.

    Args:
        params: the network used in the matching forward call.
        cache: activation cache from that call.
        d_outputs: dLoss/dOutputs, shape (batch, layer_sizes[-1]).

    Returns:
        One flat gradient laid out like ``params.flat``;
        ``NetworkParams(params.layer_sizes, grad)`` views it per layer.
    """
    delta = np.asarray(d_outputs, dtype=float)
    activations = cache["activations"]
    pre_acts = cache["pre_acts"]
    if delta.shape != pre_acts[-1].shape:
        raise ValueError("d_outputs shape does not match the cached forward pass")
    grad = NetworkParams(params.layer_sizes, np.empty_like(params.flat))
    for layer in range(len(params.weights) - 1, -1, -1):
        np.matmul(activations[layer].T, delta, out=grad.weights[layer])
        np.sum(delta, axis=0, out=grad.biases[layer])
        if layer > 0:
            delta = (delta @ params.weights[layer].T) * (pre_acts[layer - 1] > 0.0)
    return grad.flat


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over all elements."""
    pred, target = np.asarray(pred, dtype=float), np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError("pred and target shapes differ")
    diff = pred - target
    return float(np.mean(diff * diff))


def dmse_dpred(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of :func:`mse`: 2 (pred - target) / N."""
    pred, target = np.asarray(pred, dtype=float), np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError("pred and target shapes differ")
    return 2.0 * (pred - target) / pred.size


@dataclass
class TrainConfig:
    """Optimization settings shared by all architectures."""

    initial_lr: float = 1e-3
    lr_factor: float = 0.5
    lr_patience: int = 10
    min_lr: float = 1e-5
    early_stop_patience: int = 20
    max_epochs: int = 1000
    batch_size: int | None = None  # None: per-architecture default
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError("lr_factor must be in (0, 1)")
        if self.lr_patience < 1 or self.early_stop_patience < 1:
            raise ValueError("patiences must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for the default)")
        if not (math.isfinite(self.initial_lr) and self.initial_lr > 0.0):
            raise ValueError("initial_lr must be positive and finite")


class AdamState:
    """Adam moment estimates, flat like ``NetworkParams.flat``."""

    def __init__(self, params: NetworkParams, lr: float):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.step = 0
        self.lr = lr


def adam_step(state: AdamState, params: NetworkParams, grad: np.ndarray) -> None:
    """One in-place Adam update with bias correction on the flat buffer.

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
    state.v *= BETA2
    state.v += (1.0 - BETA2) * grad * grad
    params.flat -= state.lr * (state.m / corr1) / (np.sqrt(state.v / corr2) + EPS)


class ReduceLROnPlateau:
    """Halve the learning rate after `patience` epochs without improvement.

    Improvement means the validation loss beats the best seen by more than
    `PLATEAU_MIN_DELTA`; a reduction resets the stall counter, and the rate
    never drops below `min_lr`.
    """

    def __init__(self, factor=0.5, patience=10, min_lr=1e-5):
        self.factor = factor
        self.patience = patience
        self.min_lr = min_lr
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
            return max(lr * self.factor, self.min_lr)
        return lr
