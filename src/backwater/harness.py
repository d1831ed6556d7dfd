"""Experiment driver: plans, runs, stress tests, and result persistence.

A plan is a tuple of :class:`~backwater.models.ModelSpec` cells crossed with
training fractions and seeds, so every run is one (cell, fraction, seed); a
width sweep is a plan whose cells differ in width.  Runs train in stacks
(:func:`~backwater.models.train_stack`): :func:`execute_plan` trains the
runs of one architecture, width and fraction as one stack, and
:func:`run_one` is the stack of one.  Each run is then scored on the
validation and test splits (plus the extrapolation dataset, when given
one) into a record that a run directory (``manifest.json``,
``history.csv``, ``metrics.csv``, ``summary.json``) persists; a stacked
run's record equals its solo one, all but ``wall_time``.
:func:`lambda_search` runs a plan of one cell per lambda, and
:func:`replay` re-runs one record.  ``report`` rows aggregate seed means per
cell, width, fraction and split.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (
    PARAM_NAMES,
    ParameterRanges,
    ProfileDataset,
    _checked_keys,
    _fits,
    _read_csv,
    _read_json,
    _sort_outcomes,
    _write_csv,
    fit_scaler,
    subsample_training,
)
from .hydraulics import ChannelScenario
from .metrics import (
    ProfileMetrics,
    evaluate_set,
    per_station_mae,
    read_metrics_csv,
    write_metrics_csv,
)
from .models import ModelSpec, predict, train_stack
from .network import TrainConfig
from .solver import GridSpec, WaterProfile, solve_profiles

DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_FRACTIONS = (1.0, 0.5, 0.25, 0.1, 0.05)
DEFAULT_WIDTH_SWEEP = (4, 8, 16, 30, 64)
#: seed for the shared extrapolation set, fixed so every cell sees the same one
EXTRAPOLATION_SEED = 7919


# ---------------------------------------------------------------------- #
#  Plans
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ExperimentPlan:
    """Cells x training fractions x seeds, plus the extrapolation switch.

    Each run needs a run directory of its own (:func:`record_dir_name`), so a
    plan whose runs repeat one is rejected.
    """

    cells: tuple[ModelSpec, ...]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    fractions: tuple[float, ...] = (1.0,)
    extrapolation: bool = False

    def __post_init__(self):
        if not self.cells:
            raise ValueError("plan needs at least one cell")
        if not self.seeds:
            raise ValueError("plan needs at least one seed")
        if not self.fractions:
            raise ValueError("plan needs at least one training fraction")
        if not all(0.0 < f <= 1.0 for f in self.fractions):
            raise ValueError("training fractions must lie in (0, 1]")
        names = set()
        for cell, fraction, seed in self.runs():
            name = _dir_name(cell.arch, cell.strategy, cell.lam, cell.neurons, fraction, seed)
            if name in names:
                raise ValueError(
                    f"plan runs {name} twice: a repeated seed, fraction or cell (dd pins lam "
                    "to 1, sweep-width replaces cell widths) would overwrite its run directory"
                )
            names.add(name)

    def runs(self):
        """Yield every (cell, fraction, seed) the plan calls for."""
        for cell in self.cells:
            for fraction in self.fractions:
                for seed in self.seeds:
                    yield cell, fraction, seed


def desk_plan() -> tuple[ExperimentPlan, TrainConfig]:
    """The stock sparse-data study at desk scale: ten width-16 cells, 3 seeds.

    Each architecture is trained data-only and with its energy and Froude
    variants (plus the volume control for VTS) at training fraction 0.05,
    scored on test and on the shared extrapolation set.  The lambda defaults
    and the schedule (small batches, patient plateau/stop) are calibrated on
    the desk preset, where only ~17 training profiles remain at that
    fraction; the whole plan runs in a few CPU-minutes.
    """
    cells = (
        ModelSpec("sp", "dd", width=16),
        ModelSpec("sp", "en", 0.9, 16),
        ModelSpec("sp", "fr", 0.9, 16),
        ModelSpec("int", "dd", width=16),
        ModelSpec("int", "en", 0.3, 16),
        ModelSpec("int", "fr", 0.5, 16),
        ModelSpec("vts", "dd", width=16),
        ModelSpec("vts", "en", 0.3, 16),
        ModelSpec("vts", "fr", 0.5, 16),
        ModelSpec("vts", "vol", 0.3, 16),
    )
    plan = ExperimentPlan(cells=cells, seeds=DEFAULT_SEEDS, fractions=(0.05,), extrapolation=True)
    config = TrainConfig(
        initial_lr=1e-2,
        max_epochs=2000,
        lr_patience=40,
        early_stop_patience=100,
        batch_size=16,
    )
    return plan, config


# ---------------------------------------------------------------------- #
#  Extrapolation sets
# ---------------------------------------------------------------------- #


def _draw_scenario(rng, ranges: ParameterRanges) -> ChannelScenario:
    """One scenario with >= 1 parameter pushed 10% beyond its range."""
    outside = rng.random(len(PARAM_NAMES)) < 0.5
    if not outside.any():
        outside[rng.integers(len(PARAM_NAMES))] = True
    row = []
    for flag, name in zip(outside, PARAM_NAMES):
        lo, hi, _ = getattr(ranges, name)
        if not flag:
            row.append(rng.uniform(lo, hi))
        elif rng.random() < 0.5:
            row.append(rng.uniform(0.9 * lo, lo))
        else:
            row.append(rng.uniform(hi, 1.1 * hi))
    return ChannelScenario(*row)


def make_extrapolation_set(
    ranges: ParameterRanges, grid: GridSpec, count: int, seed: int
) -> tuple[list[WaterProfile], list[dict]]:
    """Solve `count` scenarios that step 10% outside the training ranges.

    All draws are solved in one batched march.  Scenarios the solver rejects
    are redrawn; sustained rejection above 25% means the ranges hug an
    infeasible corner and is a configuration error.  Returns the profiles
    and the rejected draws before the last kept one, logged as
    :func:`~.data.generate` logs its rejections.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    max_attempts = max(40, math.ceil(count / 0.75) + 10)
    # the draws do not depend on solve outcomes, so drawing every attempt up
    # front and keeping the first `count` successes is the draw-one, solve-one loop
    scenarios = [_draw_scenario(rng, ranges) for _ in range(max_attempts)]
    outcomes = solve_profiles(scenarios, grid)
    solved = [k for k, outcome in enumerate(outcomes) if isinstance(outcome, WaterProfile)]
    attempts = solved[count - 1] + 1 if len(solved) >= count else max_attempts
    profiles, rejected = _sort_outcomes(scenarios[:attempts], outcomes[:attempts])
    if len(profiles) < count or len(rejected) > 0.25 * attempts:
        raise ValueError(
            f"extrapolation sampling rejected too often "
            f"({len(rejected)}/{attempts} draws failed, >25%)"
        )
    return profiles, rejected


def extrapolation_dataset(ds: ProfileDataset, count: int | None = None, seed: int = EXTRAPOLATION_SEED) -> ProfileDataset:
    """Wrap an extrapolation set as an eval-only corpus (all profiles 'test')."""
    ranges = ParameterRanges.from_dict(ds.manifest.get("ranges"))
    if count is None:
        count = len(ds.indices("test"))
    profiles, rejected = make_extrapolation_set(ranges, ds.grid, count, seed)
    manifest = {
        "format_version": ds.manifest["format_version"],
        "kind": "extrapolation",
        "seed": seed,
        "base_ranges": ds.manifest["ranges"],
        "dx": ds.grid.dx,
        "length": ds.grid.length,
        "rejected": rejected,
        "counts": {"grid": count + len(rejected), "retained": count, "train": 0, "val": 0, "test": count},
    }
    return ProfileDataset(
        profiles, ["test"] * count, fit_scaler(profiles), ds.grid, manifest
    )


# ---------------------------------------------------------------------- #
#  Single runs
# ---------------------------------------------------------------------- #


@dataclass
class RunRecord:
    """Everything needed to report on — or exactly replay — one training run."""

    arch: str
    strategy: str
    lam: float
    width: int
    fraction: float
    seed: int
    dataset_checksum: str
    config: dict
    wall_time: float
    history: list[dict] = field(default_factory=list)
    records: list[ProfileMetrics] = field(default_factory=list)
    summaries: dict = field(default_factory=dict)

    def seed_metrics(self, split: str, metric: str) -> float:
        return self.summaries[split][metric]["mean"]


def run_one(
    ds: ProfileDataset,
    spec: ModelSpec,
    seed: int,
    config: TrainConfig | None = None,
    fraction: float = 1.0,
    ext: ProfileDataset | None = None,
    model_sink: list | None = None,
) -> RunRecord:
    """Train one cell at one training fraction and seed, and score it on
    val/test (+ extrapolation): the stack of one.

    ``ext`` is an :func:`extrapolation_dataset`; the record's config keeps
    its seed and size as ``ext_seed``/``ext_count`` so :func:`replay` can
    rebuild it.  Pass a list as ``model_sink`` to receive the TrainedModel
    itself (e.g. for checkpointing); the record alone is enough to replay
    the run.
    """
    return _run_stack(ds, [(spec, fraction, seed)], config, ext, model_sink)[0]


def _run_stack(ds, runs, config, ext, model_sink=None) -> list[RunRecord]:
    """Train (cell, fraction, seed) runs as one :func:`~.models.train_stack`
    and score each.

    A record's ``wall_time`` is its share of the stack's subsampling and
    training time plus its own scoring time.
    """
    config = config or TrainConfig()
    started = time.perf_counter()
    members = []
    for spec, fraction, seed in runs:
        ds_run = ds if fraction >= 1.0 else subsample_training(ds, fraction, seed)
        members.append((spec, ds_run, replace(config, seed=seed)))
    trained = train_stack(members)
    share = (time.perf_counter() - started) / len(runs)
    if model_sink is not None:
        model_sink.extend(trained)
    checksum = ds.content_hash()
    return [
        _score(ds, model, run_config, float(fraction), ext, checksum, share)
        for model, (_, _, run_config), (_, fraction, _) in zip(trained, members, runs)
    ]


def _score(ds, model, config, fraction, ext, checksum, share) -> RunRecord:
    """Score a trained run on val/test (+ extrapolation) and record it.

    Validation and test profiles are scored under their ids in ``ds``:
    subsampling drops training profiles only and keeps the others in order.
    """
    started = time.perf_counter()
    spec = model.spec
    splits = [(s, ds.profiles_in(s), ds.indices(s)) for s in ("val", "test")]
    if ext is not None:
        splits.append(("extrapolation", ext.profiles, None))
    all_records: list[ProfileMetrics] = []
    summaries: dict = {}
    for split, profiles, ids in splits:
        counters: dict = {}
        pred = predict(model, [prof.scenario for prof in profiles], counters=counters)
        out = evaluate_set(pred, profiles, ids=ids, split=split)
        all_records.extend(out.records)
        summaries[split] = {
            "nmae": out.nmae_summary.to_dict(),
            "nnse": out.nnse_summary.to_dict(),
            "excluded": out.excluded,
        }
        if spec.arch == "int":
            summaries[split]["clamped"] = counters.get("clamped", 0)
            summaries[split]["capped"] = counters.get("capped", 0)
            if split == "test":
                curve = per_station_mae(pred, profiles)
    if spec.arch == "int":
        summaries["station_mae"] = [float(v) for v in curve]
    summaries["diagnostics"] = model.diagnostics

    run_config = asdict(config)
    if ext is not None:
        run_config.update(ext_seed=ext.manifest["seed"], ext_count=len(ext.profiles))

    return RunRecord(
        arch=spec.arch,
        strategy=spec.strategy,
        lam=spec.lam,
        width=spec.neurons,
        fraction=fraction,
        seed=config.seed,
        dataset_checksum=checksum,
        config=run_config,
        wall_time=share + time.perf_counter() - started,
        history=model.history,
        records=all_records,
        summaries=summaries,
    )


def execute_plan(
    ds: ProfileDataset,
    plan: ExperimentPlan,
    config: TrainConfig | None = None,
    out_dir=None,
    ext_seed: int = EXTRAPOLATION_SEED,
) -> list[RunRecord]:
    """Run every (cell, fraction, seed) of a plan; optionally persist each.

    Runs that share an architecture, a width and a fraction train as one
    stack (their views have equal lengths: every seed of a fraction keeps
    ``ceil(fraction * n_train)`` profiles).  Stacks run in the order their
    first run appears in the plan.  Records come back in ``plan.runs()``
    order, and a run directory is written once its stack and the stacks of
    every earlier run have finished, so directories appear in that order too.
    """
    ext = extrapolation_dataset(ds, seed=ext_seed) if plan.extrapolation else None
    runs = list(plan.runs())
    stacks: dict[tuple, list[int]] = {}
    for k, (cell, fraction, _) in enumerate(runs):
        stacks.setdefault((cell.arch, cell.neurons, fraction), []).append(k)
    results: list = [None] * len(runs)
    saved = 0
    for members in stacks.values():
        for k, record in zip(members, _run_stack(ds, [runs[k] for k in members], config, ext)):
            results[k] = record
        while saved < len(runs) and results[saved] is not None:
            if out_dir is not None:
                save_record(results[saved], Path(out_dir) / record_dir_name(results[saved]))
            saved += 1
    return results


def replay(record: RunRecord, ds: ProfileDataset) -> RunRecord:
    """Re-run a record's cell+seed against the same dataset.

    The dataset is identified by checksum; the rebuilt run must reproduce the
    stored metrics bitwise (the determinism contract).
    """
    if ds.content_hash() != record.dataset_checksum:
        raise ValueError("dataset checksum does not match the record")
    config_fields = {f.name for f in TrainConfig.__dataclass_fields__.values()}
    config = TrainConfig(**{k: v for k, v in record.config.items() if k in config_fields})
    spec = ModelSpec(record.arch, record.strategy, record.lam, record.width)
    ext = None
    if "ext_seed" in record.config:
        ext = extrapolation_dataset(ds, count=record.config["ext_count"], seed=record.config["ext_seed"])
    return run_one(ds, spec, record.seed, config, record.fraction, ext)


# ---------------------------------------------------------------------- #
#  Run-directory persistence
# ---------------------------------------------------------------------- #

HISTORY_HEADER = ("epoch", "train_loss", "val_loss", "lr")
#: RunRecord fields stored in a run directory's manifest.json
MANIFEST_KEYS = (
    "arch", "strategy", "lam", "width", "fraction", "seed", "dataset_checksum", "config", "wall_time"
)


def _dir_name(arch, strategy, lam, width, fraction, seed) -> str:
    # shortest round-trip decimals, so distinct floats never share a name
    lam, fraction = (np.format_float_positional(v, trim="-") for v in (lam, fraction))
    return f"{arch}-{strategy}-lam{lam}-w{width}-fraction{fraction}-seed{seed}"


def record_dir_name(record: RunRecord) -> str:
    return _dir_name(record.arch, record.strategy, record.lam, record.width, record.fraction, record.seed)


def save_record(record: RunRecord, run_dir) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = {key: getattr(record, key) for key in MANIFEST_KEYS}
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    history = ([row[k] for k in HISTORY_HEADER] for row in record.history)
    _write_csv(run_dir / "history.csv", HISTORY_HEADER, history)
    write_metrics_csv(record.records, run_dir / "metrics.csv")
    (run_dir / "summary.json").write_text(json.dumps(record.summaries, indent=2))


def _history_row(row: list[str]) -> dict:
    return dict(zip(HISTORY_HEADER, [int(row[0])] + [float(v) for v in row[1:]]))


def load_record(run_dir) -> RunRecord:
    """Read a run directory written by :func:`save_record`.

    A manifest that is not an object of exactly :data:`MANIFEST_KEYS` with
    values of :class:`RunRecord`'s types (an integer is a float, a bool is
    neither) raises a ``ValueError`` naming the missing, unexpected or
    mistyped keys.
    """
    run_dir = Path(run_dir)
    path = run_dir / "manifest.json"
    manifest = _checked_keys(_read_json(path), RunRecord, f"run manifest {path}")
    return RunRecord(
        **manifest,
        history=_read_csv(run_dir / "history.csv", HISTORY_HEADER, "run history", _history_row),
        records=read_metrics_csv(run_dir / "metrics.csv"),
        summaries=_checked_summary(run_dir / "summary.json"),
    )


def _checked_summary(path) -> dict:
    """The summary at ``path``; each split it holds (``test`` at least) needs
    ``nmae``/``nnse`` objects with a finite numeric ``mean``, or a
    ``ValueError`` names the key."""
    summaries = _read_json(path)
    if "test" not in summaries:
        raise ValueError(f"run summary {path} has no 'test' split")
    for split in [s for s in ("val", "test", "extrapolation") if s in summaries]:
        for metric in ("nmae", "nnse"):
            entry = summaries[split].get(metric) if isinstance(summaries[split], dict) else None
            mean = entry.get("mean") if isinstance(entry, dict) else None
            if not (_fits(mean, float) and math.isfinite(mean)):
                raise ValueError(f"run summary {path}: {split!r} {metric!r} needs a finite numeric 'mean'")
    return summaries


def discover_records(root) -> list[RunRecord]:
    """Load every run directory (any folder holding a manifest.json) under root."""
    root = Path(root)
    return [load_record(p.parent) for p in sorted(root.glob("**/manifest.json"))]


# ---------------------------------------------------------------------- #
#  Lambda search
# ---------------------------------------------------------------------- #


def lambda_search(
    ds: ProfileDataset,
    spec: ModelSpec,
    lam_grid,
    seeds=DEFAULT_SEEDS,
    config: TrainConfig | None = None,
    fraction: float = 1.0,
) -> tuple[float, list[dict]]:
    """Pick the lambda with the lowest seed-mean validation NMAE.

    Runs a plan of one cell per candidate at the training ``fraction``.
    Returns (best lambda, table); each table row carries the candidate, its
    seed-mean validation and test NMAE, and the per-seed validation values.
    A ``dd`` spec has no lambda and is rejected.
    """
    if spec.strategy == "dd":
        raise ValueError("strategy 'dd' has no physics term, so no lambda to search")
    lam_grid = [float(lam) for lam in lam_grid]
    if not lam_grid:
        raise ValueError("lambda grid is empty")
    plan = ExperimentPlan(
        cells=tuple(replace(spec, lam=lam) for lam in lam_grid), seeds=tuple(seeds), fractions=(fraction,)
    )
    records = execute_plan(ds, plan, config)
    n_seeds = len(plan.seeds)
    table = []
    # records come cell by cell, one per seed
    for k, lam in enumerate(lam_grid):
        runs = records[k * n_seeds : (k + 1) * n_seeds]
        val_means = [r.seed_metrics("val", "nmae") for r in runs]
        test_means = [r.seed_metrics("test", "nmae") for r in runs]
        table.append(
            {
                "lam": lam,
                "seed_mean_val_nmae": float(np.mean(val_means)),
                "seed_mean_test_nmae": float(np.mean(test_means)),
                "val_nmae_per_seed": val_means,
            }
        )
    best = min(table, key=lambda row: row["seed_mean_val_nmae"])
    return best["lam"], table


# ---------------------------------------------------------------------- #
#  Report aggregation
# ---------------------------------------------------------------------- #

REPORT_HEADER = (
    "arch", "strategy", "lambda", "width", "fraction", "split", "seed_mean_nmae", "seed_mean_nnse"
)
#: the summaries a report row is scored on, in row order
REPORT_SPLITS = ("test", "extrapolation")


def aggregate(records: list[RunRecord]) -> list[dict]:
    """Seed-mean NMAE/NNSE per cell, width and fraction: one row per split
    the records were scored on."""
    groups: dict[tuple, dict[str, list]] = {}
    for record in records:
        key = (record.arch, record.strategy, record.lam, record.width, record.fraction)
        entry = groups.setdefault(key, {split: [] for split in REPORT_SPLITS})
        for split, scores in entry.items():
            if split in record.summaries:
                scores.append((record.seed_metrics(split, "nmae"), record.seed_metrics(split, "nnse")))
    rows = []
    for key, entry in sorted(groups.items()):
        for split, scores in entry.items():
            if scores:
                nmae, nnse = zip(*scores)
                values = (*key, split, float(np.mean(nmae)), float(np.mean(nnse)))
                rows.append(dict(zip(REPORT_HEADER, values)))
    return rows


def write_report(records: list[RunRecord], path) -> list[dict]:
    rows = aggregate(records)
    _write_csv(path, REPORT_HEADER, (row.values() for row in rows))  # rows are built in header order
    return rows
