"""The three surrogate shapes (SP, INT, VTS): training and reconstruction.

SP maps (station, scenario) to one depth, INT steps from a station's depth to
the next one upstream, and VTS maps a scenario straight to the full depth
vector.  All three train on the combined objective
``lam * data_mse + (1 - lam) * physics_term`` with Adam, plateau-driven
learning-rate decay, and early stopping on the validation data MSE; the
physics term is picked by the strategy tag.

:func:`predict` reconstructs a batch of scenarios as one (P, n_points) depth
array, with one branch per architecture; :func:`reconstruct` is its batch of one.
Its input rows are the training views' rows: ``[x | params]`` (sp), ``[h | params]``
(int) or ``params`` (vts), with ``params`` the scenarios'
:meth:`~.data.Scaler.scale_table`; the int march starts from the weir depth of
:func:`~.solver.weir_and_normal_depths`, which :func:`~.solver.solve_profiles`
also uses.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import ProfileDataset, Scaler, view_int, view_sp, view_vts
from .hydraulics import ChannelScenario, ConvergenceError, scenario_table
from .losses import (
    MIN_DEPTH,
    STRATEGIES,
    VTS_ONLY_STRATEGIES,
    loss_bc,
    loss_en,
    loss_fr,
    loss_pde,
    loss_vol,
    physics_constants,
)
from .network import (
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
from .solver import GridSpec, weir_and_normal_depths

ARCHITECTURES = ("sp", "int", "vts")
DEFAULT_WIDTHS = {"sp": 30, "int": 30, "vts": 40}
DEFAULT_BATCH_SIZES = {"sp": 256, "int": 256, "vts": 32}
INPUT_WIDTHS = {"sp": 6, "int": 6, "vts": 5}
N_HIDDEN = 3
CHECKPOINT_VERSION = 1

_VIEW_BUILDERS = {"sp": view_sp, "int": view_int, "vts": view_vts}


# ---------------------------------------------------------------------- #
#  Specs and trained models
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ModelSpec:
    """What to train: architecture, loss strategy, lambda, and layer width.

    ``width`` of ``None`` selects the architecture default (30 for sp/int,
    40 for vts).  The ``dd`` strategy has no physics term, so its lambda is
    pinned to 1.
    """

    arch: str
    strategy: str = "dd"
    lam: float = 1.0
    width: int | None = None

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy in VTS_ONLY_STRATEGIES and self.arch != "vts":
            raise ValueError(
                f"strategy {self.strategy!r} needs whole-profile outputs (vts only)"
            )
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if self.strategy == "dd":
            object.__setattr__(self, "lam", 1.0)
        if self.width is not None and self.width < 2:
            raise ValueError("width must be at least 2")

    @property
    def neurons(self) -> int:
        return self.width if self.width is not None else DEFAULT_WIDTHS[self.arch]

    def layer_sizes(self, n_points: int) -> list[int]:
        out = n_points if self.arch == "vts" else 1
        return [INPUT_WIDTHS[self.arch]] + [self.neurons] * N_HIDDEN + [out]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainedModel:
    """A fitted network plus everything needed to use it on new scenarios."""

    spec: ModelSpec
    params: NetworkParams
    scaler: Scaler
    grid: GridSpec
    history: list[dict] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------- #
#  Training
# ---------------------------------------------------------------------- #


def _physics_term(strategy, pred, true, consts):
    """Dispatch one strategy's loss; returns (value, gradient, clamp count).

    ``consts`` is the strategy's :func:`~.losses.physics_constants` tuple at
    the minibatch's rows.
    """
    if strategy == "en":
        return loss_en(pred, consts)
    if strategy == "fr":
        return loss_fr(pred, consts)
    if strategy == "pde":
        return loss_pde(pred, consts)
    if strategy == "vol":
        return (*loss_vol(pred, true), 0)
    return (*loss_bc(pred, true), 0)


def train(spec: ModelSpec, ds: ProfileDataset, config: TrainConfig | None = None) -> TrainedModel:
    """Fit a model of the given spec on a dataset's train/val splits.

    Each epoch visits the training samples in a fresh permutation drawn from
    a stream seeded by ``config.seed``, so equal (spec, dataset, config)
    reruns produce bit-identical histories.  Validation loss is always the
    plain data MSE; the best epoch is its first minimum, and training stops
    once ``early_stop_patience`` epochs pass without a new one.  A
    non-finite loss aborts the run and returns the best checkpoint so far
    with ``diagnostics["diverged"]`` set.
    """
    config = config or TrainConfig()
    train_view = _VIEW_BUILDERS[spec.arch](ds, "train")
    val_view = _VIEW_BUILDERS[spec.arch](ds, "val")
    n = len(train_view)
    if n == 0:
        raise ValueError("training split is empty")
    if len(val_view) == 0:
        raise ValueError("validation split is empty")

    params = init(spec.layer_sizes(ds.grid.n_points), config.seed)
    batch_size = config.batch_size or DEFAULT_BATCH_SIZES[spec.arch]
    adam = AdamState(params, config.initial_lr)
    plateau = ReduceLROnPlateau(
        factor=config.lr_factor,
        patience=config.lr_patience,
        min_lr=config.min_lr,
    )
    epoch_seeds = np.random.SeedSequence(config.seed).generate_state(config.max_epochs)

    # The physics term vanishes from the objective at lam == 1, so skipping it
    # keeps e.g. en@1.0 bit-identical to dd rather than merely close.
    use_physics = spec.strategy != "dd" and spec.lam < 1.0
    # the physics term's per-sample constants, built and checked once per run
    consts = ()
    if use_physics:
        consts = physics_constants(spec.strategy, train_view.aux, train_view.targets)
    grad = NetworkParams(params.layer_sizes, np.empty_like(params.flat))

    best_params = params.copy()
    best_val = np.inf
    best_epoch = 0
    lr = config.initial_lr
    history: list[dict] = []
    clamp_events = 0
    diverged = False
    stopped_epoch = None

    for epoch in range(config.max_epochs):
        order = np.random.default_rng(int(epoch_seeds[epoch])).permutation(n)
        batch_losses = []
        for start in range(0, n, batch_size):
            rows = order[start : start + batch_size]
            xb = train_view.inputs[rows]
            yb = train_view.targets[rows]
            out, cache = forward(params, xb)
            data_term = mse(out, yb)
            # a non-finite prediction would poison the clamped physics terms
            if not math.isfinite(data_term):
                diverged = True
                break
            d_out = dmse_dpred(out, yb)
            if use_physics:
                consts_b = tuple(a[rows] for a in consts)
                phys, d_phys, n_clamped = _physics_term(spec.strategy, out, yb, consts_b)
                clamp_events += n_clamped
                total = spec.lam * data_term + (1.0 - spec.lam) * phys
                d_out = spec.lam * d_out + (1.0 - spec.lam) * d_phys
            else:
                total = data_term
            if not np.isfinite(total):
                diverged = True
                break
            backward(params, cache, d_out, grad)
            try:
                adam_step(adam, params, grad.flat)
            except ValueError:  # non-finite gradient; adam_step updated nothing
                diverged = True
                break
            batch_losses.append(total)
        if diverged and not batch_losses:
            break

        val_out = forward(params, val_view.inputs)[0]
        val_loss = mse(val_out, val_view.targets)
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(batch_losses)),
                "val_loss": float(val_loss),
                "lr": lr,
            }
        )
        if not np.isfinite(val_loss):
            diverged = True
            break
        if diverged:
            break

        if val_loss < best_val:
            best_val = float(val_loss)
            best_params = params.copy()
            best_epoch = epoch
        lr = plateau.update(val_loss, lr)
        adam.lr = lr
        if epoch - best_epoch >= config.early_stop_patience:
            stopped_epoch = epoch
            break

    diagnostics = {
        "best_epoch": best_epoch,
        "best_val_loss": None if best_val == np.inf else best_val,
        "clamp_events": clamp_events,
        "diverged": diverged,
        "stopped_epoch": stopped_epoch,
        "epochs_run": len(history),
        "config": asdict(config),
    }
    return TrainedModel(spec, best_params, ds.scaler, ds.grid, history, diagnostics)


# ---------------------------------------------------------------------- #
#  Reconstruction
# ---------------------------------------------------------------------- #


def predict(
    model: TrainedModel,
    scenarios: list[ChannelScenario],
    grid: GridSpec | None = None,
    counters: dict | None = None,
) -> np.ndarray:
    """Reconstruct one depth profile per scenario: a (P, n_points) array.

    ``sp`` queries the network at every station of ``grid`` (any grid is
    legal), one forward per profile.  ``vts`` maps all scenarios in one
    forward; its output stations are fixed to the training grid.  ``int``
    marches all profiles upstream together from the analytic weir depth, one
    forward per station, at the training ``dx`` (any length).

    Fed-back ``int`` depths are clamped into a physical band: at least 1e-3 m
    and at most twice the larger of the boundary pool depth and the normal
    depth.  A correct backwater curve stays strictly inside the band, but the
    recursive march would otherwise amplify a single off-manifold prediction
    through the step net's extrapolating linear pieces and overflow within a
    few stations.  Floor and ceiling hits are added to ``counters["clamped"]``
    and ``counters["capped"]``.
    """
    grid = grid or model.grid
    table = scenario_table(scenarios)
    params = model.scaler.scale_table(table)
    if model.spec.arch == "vts":
        if grid != model.grid:
            raise ValueError("vts output stations are fixed to the training grid")
        return forward(model.params, params)[0]
    depths = np.empty((len(table), grid.n_points))
    if model.spec.arch == "sp":
        inputs = np.empty((grid.n_points, INPUT_WIDTHS["sp"]))
        inputs[:, 0] = model.scaler.scale("x", grid.stations)
        for k, row in enumerate(params):
            inputs[:, 1:] = row
            depths[k] = forward(model.params, inputs)[0][:, 0]
        return depths

    if grid.dx != model.grid.dx:
        raise ValueError(
            f"int step net was trained for dx = {model.grid.dx:g} m, not dx = {grid.dx:g} m"
        )
    depths[:, 0], h_n, status = weir_and_normal_depths(table)
    if status.any():
        raise ConvergenceError(f"no normal depth for scenario {np.flatnonzero(status)[0]}")
    cap = 2.0 * np.maximum(depths[:, 0], h_n)
    inputs = np.empty((len(table), INPUT_WIDTHS["int"]))
    inputs[:, 1:] = params
    hits = {"clamped": 0, "capped": 0}
    for i in range(1, grid.n_points):
        inputs[:, 0] = model.scaler.scale("h", depths[:, i - 1])
        h = forward(model.params, inputs)[0][:, 0]
        low = h < MIN_DEPTH
        high = ~low & (h > cap)  # NaN is neither, and passes through
        depths[:, i] = np.where(low, MIN_DEPTH, np.where(high, cap, h))
        hits["clamped"] += int(low.sum())
        hits["capped"] += int(high.sum())
    if counters is not None:
        for key, count in hits.items():
            if count:
                counters[key] = counters.get(key, 0) + count
    return depths


def reconstruct(
    model: TrainedModel,
    scen: ChannelScenario,
    grid: GridSpec | None = None,
    counters: dict | None = None,
) -> np.ndarray:
    """One scenario's profile: :func:`predict` for a batch of one."""
    return predict(model, [scen], grid, counters)[0]


# ---------------------------------------------------------------------- #
#  Checkpoints
# ---------------------------------------------------------------------- #


def save_model(model: TrainedModel, path) -> None:
    """Write a JSON checkpoint (weights, scaler, grid, history, config echo)."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "spec": model.spec.to_dict(),
        "network": model.params.to_dict(),
        "scaler": model.scaler.to_dict(),
        "grid": {"dx": model.grid.dx, "length": model.grid.length},
        "history": model.history,
        "diagnostics": model.diagnostics,
    }
    Path(path).write_text(json.dumps(payload))


def load_model(path) -> TrainedModel:
    """Read a checkpoint written by :func:`save_model`.

    Raises:
        ValueError: naming the first missing or malformed field.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError("unsupported checkpoint version")
    readers = (  # in TrainedModel's field order
        ("spec", dict, lambda d: ModelSpec(**d)),
        ("network", dict, NetworkParams.from_dict),
        ("scaler", dict, lambda d: Scaler(mean=d["mean"], std=d["std"])),
        ("grid", dict, lambda d: GridSpec(**d)),
        ("history", list, lambda d: d),
        ("diagnostics", dict, lambda d: d),
    )
    fields = {}
    for name, kind, read in readers:
        value = payload.get(name)
        if not isinstance(value, kind):
            raise ValueError(f"checkpoint field {name!r} is missing or not a JSON {kind.__name__}")
        try:
            fields[name] = read(value)
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"malformed checkpoint field {name!r}: {exc}") from exc
    return TrainedModel(*fields.values())
