"""The three surrogate shapes (SP, INT, VTS): training and reconstruction.

SP maps (station, scenario) to one depth, INT steps from a station's depth to
the next one upstream, and VTS maps a scenario straight to the full depth
vector.  All three train on the combined objective
``lam * data_mse + (1 - lam) * physics_term`` with Adam, plateau-driven
learning-rate decay, and early stopping on the validation data MSE.  The
physics term is the strategy's kernel in :data:`~.losses.PHYSICS_TERMS`, fed
its :func:`~.losses.physics_constants` (built once per run) at each
minibatch's rows.

:func:`train_stack` is the only training loop: it fits S runs of one
architecture and layer-size list as one stacked network, each member with
its own data, seed, physics term, schedule and stopping, and leaves each
member bitwise where training it alone would.  Its step has no loop over
members: the stack's members are sorted into strategy groups, and each
group's kernel runs once per step on the group's slice of the stack.
:func:`train` is its stack of one.

:func:`predict` reconstructs a batch of scenarios as one (P, n_points) depth
array, with one branch per architecture; :func:`reconstruct` is its batch of one.
Its input rows are the training views' rows: ``[x | params]`` (sp), ``[h | params]``
(int) or ``params`` (vts), with ``params`` the scenarios'
:meth:`~.data.Scaler.scale_table`; the int march starts from the weir depth of
:func:`~.solver.boundary_depths`, the same bits as the
:func:`~.solver.weir_and_normal_depths` that :func:`~.solver.solve_profiles`
uses, solved once per scenario.  The sp and int branches run their forwards
into one set of :func:`~.network.forward_buffers` per call, and training
validates into one set per stack.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import ProfileDataset, Scaler, _checked_keys, _checked_type, _fits, _read_json, view_int, view_sp, view_vts
from .hydraulics import ChannelScenario, ConvergenceError, scenario_table
from .losses import MIN_DEPTH, PHYSICS_TERMS, STRATEGIES, VTS_ONLY_STRATEGIES, physics_constants
from .network import (
    AdamState,
    NetworkParams,
    ReduceLROnPlateau,
    TrainConfig,
    adam_step,
    backward,
    forward,
    forward_buffers,
    init,
    mse,
    mse_grad,
)
from .solver import GridSpec, boundary_depths

ARCHITECTURES = ("sp", "int", "vts")
DEFAULT_WIDTHS = {"sp": 30, "int": 30, "vts": 40}
DEFAULT_BATCH_SIZES = {"sp": 256, "int": 256, "vts": 32}
INPUT_WIDTHS = {"sp": 6, "int": 6, "vts": 5}
#: Rows of one ``sp`` reconstruction forward: about the desk validation pass
#: (75 profiles x 101 stations), so inference holds no more activations than
#: training does.
_SP_BLOCK_ROWS = 8192
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
            raise ValueError(f"strategy {self.strategy!r} needs whole-profile outputs (vts only)")
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


def train(spec: ModelSpec, ds: ProfileDataset, config: TrainConfig | None = None) -> TrainedModel:
    """Fit a model of the given spec on a dataset's train/val splits: the
    :func:`train_stack` of one member."""
    return train_stack([(spec, ds, config or TrainConfig())])[0]


class _Member:
    """One run of a training stack: its views, physics term and bookkeeping."""

    def __init__(self, spec: ModelSpec, ds: ProfileDataset, config: TrainConfig, train_view, val_view):
        self.spec, self.ds, self.config = spec, ds, config
        self.train_view, self.val_view = train_view, val_view
        for split, view in (("training", train_view), ("validation", val_view)):
            if len(view) == 0:
                raise ValueError(f"{split} split is empty")
        self.layer_sizes = spec.layer_sizes(ds.grid.n_points)
        self.epoch_seeds = np.random.SeedSequence(config.seed).generate_state(config.max_epochs)
        # The physics term vanishes from the objective at lam == 1, so skipping it
        # keeps e.g. en@1.0 bit-identical to dd rather than merely close.
        self.term = None
        if spec.strategy != "dd" and spec.lam < 1.0:
            self.term = PHYSICS_TERMS[spec.strategy]
            # the term's per-sample constants, built and checked once per run
            self.consts = physics_constants(spec.strategy, self.train_view.aux, self.train_view.targets)
        self.plateau = ReduceLROnPlateau(config.lr_patience)
        self.lr = config.initial_lr
        # the initial weights, which the stack copies, are the checkpoint until an epoch beats them
        self.best_params = init(self.layer_sizes, config.seed)
        self.best_val, self.best_epoch = np.inf, 0
        self.history: list[dict] = []
        self.clamp_events, self.diverged, self.stopped_epoch = 0, False, None

    @property
    def group(self) -> str:
        """The strategy group the member trains in; "" for none (no physics term)."""
        return self.spec.strategy if self.term is not None else ""

    def record(self, epoch: int, params: NetworkParams, losses: np.ndarray, out: list[np.ndarray]) -> float:
        """Append the epoch's history row, its training loss the mean of the
        epoch's minibatch objectives, scored on the validation view through
        the forward buffers ``out``; returns its validation loss."""
        val_loss = mse(forward(params, self.val_view.inputs, out=out)[0], self.val_view.targets)
        self.history.append(
            {"epoch": epoch, "train_loss": float(np.mean(losses)), "val_loss": val_loss, "lr": self.lr}
        )
        return val_loss

    def end_epoch(self, epoch: int, params: NetworkParams, losses: np.ndarray, out: list[np.ndarray]) -> bool:
        """Close an epoch the member finished with ``params``; True when it
        leaves the stack."""
        val_loss = self.record(epoch, params, losses, out)
        if not math.isfinite(val_loss):
            self.diverged = True
            return True
        if val_loss < self.best_val:
            self.best_val = val_loss
            self.best_params = params.copy()
            self.best_epoch = epoch
        self.lr = self.plateau.update(val_loss, self.lr)
        if epoch - self.best_epoch >= self.config.early_stop_patience:
            self.stopped_epoch = epoch
            return True
        return False

    def result(self) -> TrainedModel:
        diagnostics = {
            "best_epoch": self.best_epoch,
            "best_val_loss": None if self.best_val == np.inf else self.best_val,
            "clamp_events": self.clamp_events,
            "diverged": self.diverged,
            "stopped_epoch": self.stopped_epoch,
            "epochs_run": len(self.history),
            "config": asdict(self.config),
        }
        return TrainedModel(
            self.spec, self.best_params, self.ds.scaler, self.ds.grid, self.history, diagnostics
        )


class _Group:
    """The stack's members of one strategy group: rows ``rows`` of its arrays.

    ``consts`` holds the members' :func:`~.losses.physics_constants`, each
    gathered in its member's epoch order into a (k, n, ·) buffer, and
    ``step_consts[step]`` their views at that minibatch's rows, made once
    per group; ``lam`` and ``rest`` are the members' weights on the data
    and physics terms.
    """

    def __init__(self, start: int, members: list[_Member], consts: tuple, batches: list[slice]):
        self.term = members[0].term
        self.rows = slice(start, start + len(members))
        self.consts = consts
        self.step_consts = [tuple(c[:, batch] for c in consts) for batch in batches]
        lam = np.array([m.spec.lam for m in members])
        self.lam, self.rest = lam, 1.0 - lam
        self.grad_lam, self.grad_rest = lam[:, None, None], self.rest[:, None, None]

    def add_physics(self, out, step: int, totals, d_out, clamp_events) -> None:
        """Mix the group's physics term at minibatch ``step`` into the
        stack's data term and its gradient, in place: one kernel call."""
        rows = self.rows
        phys, d_phys, clamped = self.term(out[rows], self.step_consts[step])
        clamp_events[rows] += clamped
        totals[rows] = self.lam * totals[rows] + self.rest * phys
        d_rows = d_out[rows]
        d_rows *= self.grad_lam
        d_rows += self.grad_rest * d_phys


class _Stack:
    """The stacked arrays of the members still training, one row each.

    Members are sorted into strategy groups, those without a physics term
    first, so each :class:`_Group` is a contiguous slice of every array.
    ``views[k]`` is member k's network as a 2-D view of its row; validation
    runs member by member through it, into ``val_out``, the forward buffers
    for the members' one validation-view shape, kept for all the stack's
    epochs.  :meth:`shuffle` gathers each epoch's training rows and physics
    constants once, in every member's own order, so a minibatch is a
    contiguous slice of them.  ``losses`` holds the epoch's minibatch
    objectives, one column per step (its slice of rows in ``batches``), and
    ``clamp_events`` each member's clamp count so far.
    """

    def __init__(self, members: list[_Member], batch_size: int):
        self.members = sorted(members, key=lambda m: m.group)
        self._stacked(
            NetworkParams(list(members[0].layer_sizes), np.stack([m.best_params.flat for m in self.members]))
        )
        self.adam = AdamState(self.params, np.array([[m.lr] for m in self.members], dtype=float))
        # one gradient buffer for every step
        self.grad = NetworkParams(self.params.layer_sizes, np.empty_like(self.params.flat))
        view = members[0].train_view
        self.batches = [slice(start, start + batch_size) for start in range(0, len(view), batch_size)]
        self.epoch_inputs = np.empty((len(members), *view.inputs.shape))
        self.epoch_targets = np.empty((len(members), *view.targets.shape))
        self.losses = np.empty((len(members), len(self.batches)))
        self.clamp_events = np.zeros(len(members), dtype=int)
        self.val_out = forward_buffers(self.views[0], members[0].val_view.inputs.shape)
        self.groups = []
        start = 0
        for key, grouped in itertools.groupby(self.members, key=lambda m: m.group):
            grouped = list(grouped)
            if key:
                consts = tuple(np.empty((len(grouped), *a.shape)) for a in grouped[0].consts)
                self.groups.append(_Group(start, grouped, consts, self.batches))
            start += len(grouped)

    def shuffle(self, epoch: int) -> None:
        """Gather the epoch's inputs, targets and physics constants, each
        member's rows in the permutation its epoch seed draws."""
        orders = []
        for k, member in enumerate(self.members):
            view = member.train_view
            order = np.random.default_rng(int(member.epoch_seeds[epoch])).permutation(len(view))
            # mode="raise" would gather into a temporary first; a permutation needs no bounds check
            np.take(view.inputs, order, axis=0, out=self.epoch_inputs[k], mode="clip")
            np.take(view.targets, order, axis=0, out=self.epoch_targets[k], mode="clip")
            orders.append(order)
        for group in self.groups:
            for j, k in enumerate(range(group.rows.start, group.rows.stop)):
                for const, buffer in zip(self.members[k].consts, group.consts):
                    np.take(const, orders[k], axis=0, out=buffer[j], mode="clip")

    def _stacked(self, params: NetworkParams) -> None:
        self.params = params
        self.views = [NetworkParams(params.layer_sizes, row) for row in params.flat]

    def keep(self, mask: np.ndarray) -> None:
        """Drop the members where ``mask`` is False, with their clamp counts."""
        for k in np.flatnonzero(~mask):
            self.members[k].clamp_events = int(self.clamp_events[k])
        self.members = [m for m, kept in zip(self.members, mask) if kept]
        self._stacked(NetworkParams(self.params.layer_sizes, self.params.flat[mask]))
        self.grad = NetworkParams(self.params.layer_sizes, self.grad.flat[mask])
        adam = self.adam
        adam.m, adam.v, adam.lr = adam.m[mask], adam.v[mask], adam.lr[mask]
        self.epoch_inputs, self.epoch_targets = self.epoch_inputs[mask], self.epoch_targets[mask]
        self.losses, self.clamp_events = self.losses[mask], self.clamp_events[mask]
        groups = []
        for group in self.groups:
            kept = mask[group.rows]
            if kept.any():
                start = int(np.count_nonzero(mask[: group.rows.start]))
                members = self.members[start : start + int(np.count_nonzero(kept))]
                groups.append(_Group(start, members, tuple(c[kept] for c in group.consts), self.batches))
        self.groups = groups

    def diverge(self, mask: np.ndarray, epoch: int, steps: int) -> None:
        """Members where ``mask`` is False leave mid-epoch, after ``steps``
        minibatches, without this step's update; an epoch with steps behind
        it still gets its history row."""
        for k in np.flatnonzero(~mask):
            member = self.members[k]
            member.diverged = True
            if steps:  # none only when the epoch's first step diverged
                member.record(epoch, self.views[k], self.losses[k, :steps], self.val_out)
        self.keep(mask)


def _without(mask: np.ndarray, totals, d_out, cache):
    """A step's objectives, output gradient and forward cache without the
    members where ``mask`` is False."""
    cache = {key: [a[mask] for a in arrays] for key, arrays in cache.items()}
    return totals[mask], d_out[mask], cache


def train_stack(members) -> list[TrainedModel]:
    """Fit S runs together, one stacked network per step, bitwise as if alone.

    ``members`` are ``(spec, dataset, config)`` triples that share one
    architecture, layer-size list, training- and validation-view length, and
    a ``TrainConfig`` equal in every field except ``seed``.
    Returns one :class:`TrainedModel` per member, in the order given.

    Each member keeps its own state: every epoch visits its training samples
    in a fresh permutation drawn from a stream seeded by its
    ``config.seed``, each minibatch is the next slice of its rows in that
    order, and its strategy's kernel in :data:`~.losses.PHYSICS_TERMS` sees
    its own :func:`~.losses.physics_constants` at those rows.  A step is
    whole-stack array code: one forward, one data term and gradient for
    every member (:func:`~.network.mse_grad`), then one kernel call per
    strategy group, on the group's slice of the stack, with per-member
    lambdas.  Members with strategy ``dd`` or lambda 1 join no group.
    Validation loss is always the plain data MSE; a member's best epoch is
    its first minimum, its rate follows its own plateau, and it stops once
    ``early_stop_patience`` epochs pass without a new best.  It then leaves
    the stack at the end of that epoch, as it does at ``max_epochs``.  A
    member whose data term, objective or gradient turns non-finite leaves at
    once, without that step's update, and returns its best checkpoint so far
    with ``diagnostics["diverged"]`` set; one whose data term does leaves
    before the physics kernels see its predictions.  Equal (spec, dataset,
    config) members produce bit-identical histories and weights in any stack.

    Raises:
        ValueError: on an empty list, members that cannot share one stack,
            or an empty training or validation split.
    """
    views = {}  # the training and validation views of each (dataset, architecture), built once
    for spec, ds, _ in members:
        if (id(ds), spec.arch) not in views:
            views[id(ds), spec.arch] = [_VIEW_BUILDERS[spec.arch](ds, split) for split in ("train", "val")]
    runs = [_Member(spec, ds, config, *views[id(ds), spec.arch]) for spec, ds, config in members]
    if not runs:
        raise ValueError("train_stack needs at least one member")
    first = runs[0]
    shape = (first.spec.arch, first.layer_sizes, len(first.train_view), len(first.val_view))
    for run in runs[1:]:
        for what, mine, theirs in zip(
            ("architectures", "layer sizes", "training-view lengths", "validation-view lengths"),
            (run.spec.arch, run.layer_sizes, len(run.train_view), len(run.val_view)),
            shape,
        ):
            if mine != theirs:
                raise ValueError(f"stack members differ in {what}: {theirs} and {mine}")
        if replace(run.config, seed=first.config.seed) != first.config:
            raise ValueError("stack members' configs differ in more than the seed")

    config = first.config
    stack = _Stack(runs, config.batch_size or DEFAULT_BATCH_SIZES[first.spec.arch])
    for epoch in range(config.max_epochs):
        stack.shuffle(epoch)
        for step, batch in enumerate(stack.batches):
            out, cache = forward(stack.params, stack.epoch_inputs[:, batch])
            totals, d_out = mse_grad(out, stack.epoch_targets[:, batch])
            finite = np.isfinite(totals)
            if not finite.all():  # a non-finite prediction would poison the clamped physics terms
                stack.diverge(finite, epoch, step)
                if not stack.members:
                    break
                totals, d_out, cache = _without(finite, totals, d_out, cache)
                out = cache["activations"][-1]
            for group in stack.groups:
                group.add_physics(out, step, totals, d_out, stack.clamp_events)
            finite = np.isfinite(totals)
            if not finite.all():
                stack.diverge(finite, epoch, step)
                if not stack.members:
                    break
                totals, d_out, cache = _without(finite, totals, d_out, cache)
            backward(stack.params, cache, d_out, stack.grad)
            try:
                adam_step(stack.adam, stack.params, stack.grad.flat)
            except ValueError:  # a non-finite gradient; adam_step updated nothing
                finite = np.isfinite(stack.grad.flat).all(axis=1)
                stack.diverge(finite, epoch, step)
                if not stack.members:
                    break
                totals = totals[finite]
                adam_step(stack.adam, stack.params, stack.grad.flat)
            stack.losses[:, step] = totals
        if not stack.members:
            break

        leaving = np.array(
            [
                m.end_epoch(epoch, view, losses, stack.val_out)
                for m, view, losses in zip(stack.members, stack.views, stack.losses)
            ]
        )
        stack.adam.lr[:, 0] = [m.lr for m in stack.members]
        if leaving.any():
            stack.keep(~leaving)
            if not stack.members:
                break
    for member, count in zip(stack.members, stack.clamp_events.tolist()):  # those left at max_epochs
        member.clamp_events = count
    return [run.result() for run in runs]


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
    legal), one forward per block of about 8192 rows, each profile's
    stations a slice of it.  ``vts`` maps all scenarios in one
    forward; its output stations are fixed to the training grid.  ``int``
    marches all profiles upstream together from the analytic weir depth, one
    forward per station, at the training ``dx`` (any length); its weir and
    normal depths come from :func:`~.solver.boundary_depths`, so scenario
    objects reconstructed before skip the normal-depth search.  ``sp`` and ``int``
    reuse one set of forward buffers for all their forwards.

    Fed-back ``int`` depths are clamped into a physical band: at least 1e-3 m
    and at most twice the larger of the boundary pool depth and the normal
    depth.  A correct backwater curve stays strictly inside the band, but the
    recursive march would otherwise amplify a single off-manifold prediction
    through the step net's extrapolating linear pieces and overflow within a
    few stations.  Where the cap lies below the floor, the floor wins.  Floor
    and ceiling hits are added to ``counters["clamped"]`` and
    ``counters["capped"]``.

    Raises:
        ConvergenceError: (``int``) naming the first scenario without a
            normal depth.
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
        # a block of profiles is one forward; each profile is its own
        # (n_points, 6) product, so batching across profiles keeps its bits
        block = max(1, _SP_BLOCK_ROWS // grid.n_points)
        inputs = np.empty((min(block, len(table)), grid.n_points, INPUT_WIDTHS["sp"]))
        inputs[..., 0] = model.scaler.scale("x", grid.stations)
        out = forward_buffers(model.params, inputs.shape)
        for start in range(0, len(table), block):
            rows = params[start : start + block]
            n = len(rows)  # the last block may be short: the buffers' first n profiles
            inputs[:n, :, 1:] = rows[:, None, :]
            h = forward(model.params, inputs[:n], out=[layer[:n] for layer in out])[0]
            depths[start : start + n] = h[..., 0]
        return depths

    if grid.dx != model.grid.dx:
        raise ValueError(
            f"int step net was trained for dx = {model.grid.dx:g} m, not dx = {grid.dx:g} m"
        )
    weir, h_n, status = boundary_depths(scenarios)
    if status.any():
        raise ConvergenceError(f"no normal depth for scenario {np.flatnonzero(status)[0]}")
    depths[:, 0] = weir
    cap = 2.0 * np.maximum(weir, h_n)
    inputs = np.empty((len(table), INPUT_WIDTHS["int"]))
    inputs[:, 1:] = params
    out = forward_buffers(model.params, inputs.shape)
    low = np.empty(len(table), dtype=bool)
    high = np.empty_like(low)
    hits = {"clamped": 0, "capped": 0}
    for i in range(1, grid.n_points):
        inputs[:, 0] = model.scaler.scale("h", depths[:, i - 1])
        h = forward(model.params, inputs, out=out)[0][:, 0]
        np.less(h, MIN_DEPTH, out=low)
        np.greater(h, cap, out=high)  # NaN is neither, and passes through
        np.copyto(high, False, where=low)  # the floor wins where the band is inverted
        column = depths[:, i]
        np.copyto(column, h)
        np.copyto(column, cap, where=high)
        np.copyto(column, MIN_DEPTH, where=low)
        hits["clamped"] += int(np.count_nonzero(low))
        hits["capped"] += int(np.count_nonzero(high))
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


def _read_network(d: dict) -> NetworkParams:
    """A checkpoint's ``network``, each value type-checked before it is read
    and every weight and bias finite."""
    for key, hint in (("layer_sizes", list[int]), ("weights", list[list[float]]), ("biases", list[list[float]])):
        _checked_type("network", key, d.get(key), hint)
    params = NetworkParams.from_dict(d)
    for key, arrays in (("weights", params.weights), ("biases", params.biases)):
        bad = next((layer for layer, a in enumerate(arrays) if not np.isfinite(a).all()), None)
        if bad is not None:
            raise ValueError(f"network {key}[{bad}] holds a non-finite value")
    return params


def load_model(path) -> TrainedModel:
    """Read a checkpoint written by :func:`save_model`.

    Raises:
        ValueError: naming the first missing or malformed field, or the
            network's layer sizes when they are not the ones its spec and
            grid call for.
    """
    payload = _read_json(path)
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError("unsupported checkpoint version")
    readers = (  # in TrainedModel's field order
        ("spec", dict, lambda d: ModelSpec(**_checked_keys(d, ModelSpec, "spec"))),
        ("network", dict, _read_network),
        ("scaler", dict, lambda d: Scaler(**_checked_keys(d, Scaler, "scaler"))),
        ("grid", dict, lambda d: GridSpec(**_checked_keys(d, GridSpec, "grid"))),
        ("history", list, lambda d: d),
        ("diagnostics", dict, lambda d: d),
    )
    fields = {}
    for name, kind, read in readers:
        value = payload.get(name)
        if not _fits(value, kind):
            raise ValueError(f"checkpoint field {name!r} is missing or not a JSON {kind.__name__}")
        try:
            fields[name] = read(value)
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"malformed checkpoint field {name!r}: {exc}") from exc
    model = TrainedModel(*fields.values())
    expected = model.spec.layer_sizes(model.grid.n_points)
    if model.params.layer_sizes != expected:
        raise ValueError(
            f"checkpoint network has layer sizes {model.params.layer_sizes}, but its spec "
            f"{model.spec.arch}/width {model.spec.neurons} on its grid needs {expected}"
        )
    return model
