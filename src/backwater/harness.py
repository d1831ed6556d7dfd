"""Experiment driver: plans, runs, stress tests, and result persistence.

A plan is a tuple of :class:`~backwater.models.ModelSpec` cells crossed with
seeds and optionally a sweep axis (training fraction or network width).
Every run goes through :func:`run_one`: it trains one model, scores it on
the validation and test splits (plus the extrapolation dataset, when given
one), and returns a record that a run directory (``manifest.json``,
``history.csv``, ``metrics.csv``, ``summary.json``) persists.
:func:`execute_plan` runs a plan, :func:`lambda_search` runs a plan of one
cell per lambda, and :func:`replay` re-runs one record.  ``report`` rows
aggregate seed means per cell, width and axis value.
"""

from __future__ import annotations

import csv
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
    fit_scaler,
    subsample_training,
)
from .hydraulics import ChannelScenario, ConvergenceError, InsufficientEnergyError
from .metrics import (
    ProfileMetrics,
    evaluate_set,
    per_station_mae,
    read_metrics_csv,
    write_metrics_csv,
)
from .models import ModelSpec, predict, train
from .network import TrainConfig
from .solver import GridSpec, WaterProfile, solve_profiles

DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_FRACTIONS = (1.0, 0.5, 0.25, 0.1, 0.05)
DEFAULT_WIDTH_SWEEP = (4, 8, 16, 30, 64)
PLAN_AXES = ("none", "fraction", "width")
#: seed for the shared extrapolation set, fixed so every cell sees the same one
EXTRAPOLATION_SEED = 7919


# ---------------------------------------------------------------------- #
#  Plans
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ExperimentPlan:
    """Cells x seeds x optional sweep axis, plus the extrapolation switch."""

    cells: tuple[ModelSpec, ...]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    axis: str = "none"
    axis_values: tuple = ()
    extrapolation: bool = False

    def __post_init__(self):
        if not self.cells:
            raise ValueError("plan needs at least one cell")
        if not self.seeds:
            raise ValueError("plan needs at least one seed")
        if self.axis not in PLAN_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if self.axis == "none" and self.axis_values:
            raise ValueError("axis 'none' takes no axis values")
        if self.axis != "none" and not self.axis_values:
            raise ValueError(f"axis {self.axis!r} needs axis values")
        for v in self.axis_values:
            if self.axis == "fraction" and not 0.0 < v <= 1.0:
                raise ValueError("training fractions must lie in (0, 1]")
            if self.axis == "width" and (int(v) != v or v < 2):
                raise ValueError("widths must be integers >= 2")

    def runs(self):
        """Yield every (cell, axis_value, seed) the plan calls for."""
        values = self.axis_values if self.axis != "none" else (None,)
        for cell in self.cells:
            for value in values:
                for seed in self.seeds:
                    yield cell, value, seed


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
    plan = ExperimentPlan(
        cells=cells,
        seeds=DEFAULT_SEEDS,
        axis="fraction",
        axis_values=(0.05,),
        extrapolation=True,
    )
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


def make_extrapolation_set(ranges: ParameterRanges, grid: GridSpec, count: int, seed: int):
    """Solve `count` scenarios that step 10% outside the training ranges.

    All draws are solved in one batched march.  Scenarios the solver rejects
    are redrawn; sustained rejection above 25% means the ranges hug an
    infeasible corner and is a configuration error.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    max_attempts = max(40, math.ceil(count / 0.75) + 10)
    # the draws do not depend on solve outcomes, so drawing every attempt up
    # front and keeping the first `count` successes is the draw-one, solve-one loop
    scenarios = [_draw_scenario(rng, ranges) for _ in range(max_attempts)]
    profiles = []
    attempts = 0
    for outcome in solve_profiles(scenarios, grid):
        if len(profiles) == count:
            break
        attempts += 1
        if isinstance(outcome, WaterProfile):
            profiles.append(outcome)
        elif not isinstance(outcome, (InsufficientEnergyError, ConvergenceError)):
            raise outcome
    if len(profiles) < count or (attempts - count) > 0.25 * attempts:
        raise ValueError(
            f"extrapolation sampling rejected too often "
            f"({attempts - len(profiles)}/{attempts} draws failed, >25%)"
        )
    return profiles


def extrapolation_dataset(ds: ProfileDataset, count: int | None = None, seed: int = EXTRAPOLATION_SEED) -> ProfileDataset:
    """Wrap an extrapolation set as an eval-only corpus (all profiles 'test')."""
    ranges = ParameterRanges.from_dict(ds.manifest["ranges"])
    if count is None:
        count = len(ds.indices("test"))
    profiles = make_extrapolation_set(ranges, ds.grid, count, seed)
    manifest = {
        "format_version": ds.manifest["format_version"],
        "kind": "extrapolation",
        "seed": seed,
        "base_ranges": ds.manifest["ranges"],
        "dx": ds.grid.dx,
        "length": ds.grid.length,
        "rejected": [],
        "counts": {"grid": count, "retained": count, "train": 0, "val": 0, "test": count},
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
    axis: str
    axis_value: float | None
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
    axis: str = "none",
    axis_value=None,
    ext: ProfileDataset | None = None,
    model_sink: list | None = None,
) -> RunRecord:
    """Train one cell at one seed and score it on val/test (+ extrapolation).

    ``ext`` is an :func:`extrapolation_dataset`; the record's config keeps
    its seed and size as ``ext_seed``/``ext_count`` so :func:`replay` can
    rebuild it.  Pass a list as ``model_sink`` to receive the TrainedModel
    itself (e.g. for checkpointing); the record alone is enough to replay
    the run.
    """
    config = config or TrainConfig()
    config = replace(config, seed=seed)
    fraction = float(axis_value) if axis == "fraction" else 1.0
    if axis == "width":
        spec = replace(spec, width=int(axis_value))

    started = time.perf_counter()
    ds_run = ds if fraction >= 1.0 else subsample_training(ds, fraction, seed)
    model = train(spec, ds_run, config)
    if model_sink is not None:
        model_sink.append(model)

    splits = [(s, ds_run.profiles_in(s), ds_run.indices(s)) for s in ("val", "test")]
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
    run_config["fraction"] = fraction
    if ext is not None:
        run_config.update(ext_seed=ext.manifest["seed"], ext_count=len(ext.profiles))

    return RunRecord(
        arch=spec.arch,
        strategy=spec.strategy,
        lam=spec.lam,
        width=spec.neurons,
        axis=axis,
        axis_value=None if axis_value is None else float(axis_value),
        seed=seed,
        dataset_checksum=ds.content_hash(),
        config=run_config,
        wall_time=time.perf_counter() - started,
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
    """Run every (cell, axis value, seed) of a plan; optionally persist each."""
    ext = extrapolation_dataset(ds, seed=ext_seed) if plan.extrapolation else None
    results = []
    for cell, axis_value, seed in plan.runs():
        record = run_one(ds, cell, seed, config, plan.axis, axis_value, ext)
        if out_dir is not None:
            save_record(record, Path(out_dir) / record_dir_name(record))
        results.append(record)
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
    return run_one(ds, spec, record.seed, config, record.axis, record.axis_value, ext)


# ---------------------------------------------------------------------- #
#  Run-directory persistence
# ---------------------------------------------------------------------- #

HISTORY_HEADER = ("epoch", "train_loss", "val_loss", "lr")
#: RunRecord fields stored in a run directory's manifest.json
MANIFEST_KEYS = (
    "arch",
    "strategy",
    "lam",
    "width",
    "axis",
    "axis_value",
    "seed",
    "dataset_checksum",
    "config",
    "wall_time",
)


def record_dir_name(record: RunRecord) -> str:
    axis = "base" if record.axis == "none" else f"{record.axis}{record.axis_value:g}"
    return (
        f"{record.arch}-{record.strategy}-lam{record.lam:g}"
        f"-w{record.width}-{axis}-seed{record.seed}"
    )


def save_record(record: RunRecord, run_dir) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = {key: getattr(record, key) for key in MANIFEST_KEYS}
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    with open(run_dir / "history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_HEADER)
        for row in record.history:
            writer.writerow([row["epoch"], repr(row["train_loss"]), repr(row["val_loss"]), repr(row["lr"])])
    write_metrics_csv(record.records, run_dir / "metrics.csv")
    (run_dir / "summary.json").write_text(json.dumps(record.summaries, indent=2))


def load_record(run_dir) -> RunRecord:
    """Read a run directory written by :func:`save_record`.

    A manifest that is not an object of exactly :data:`MANIFEST_KEYS` raises
    a ``ValueError`` naming the missing or unexpected keys.
    """
    run_dir = Path(run_dir)
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"run manifest {path} is not a JSON object")
    missing = [k for k in MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ValueError(f"run manifest {path} lacks {', '.join(map(repr, missing))}")
    unexpected = sorted(set(manifest) - set(MANIFEST_KEYS))
    if unexpected:
        raise ValueError(f"run manifest {path} has unexpected {', '.join(map(repr, unexpected))}")
    history = []
    path = run_dir / "history.csv"
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != HISTORY_HEADER:
            raise ValueError(f"run history {path} has an unexpected header")
        for k, row in enumerate(reader, start=1):
            try:
                if len(row) != len(HISTORY_HEADER):
                    raise ValueError(f"{len(row)} fields, not {len(HISTORY_HEADER)}")
                values = [int(row[0])] + [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ValueError(f"run history {path} row {k}: {exc}") from exc
            history.append(dict(zip(HISTORY_HEADER, values)))
    return RunRecord(
        **manifest,
        history=history,
        records=read_metrics_csv(run_dir / "metrics.csv"),
        summaries=_checked_summary(run_dir / "summary.json"),
    )


def _checked_summary(path) -> dict:
    """The summary at ``path``; each split it holds (``test`` at least) needs
    ``nmae``/``nnse`` objects with a finite numeric ``mean``, or a
    ``ValueError`` names the key."""
    summaries = json.loads(path.read_text())
    if not isinstance(summaries, dict) or "test" not in summaries:
        raise ValueError(f"run summary {path} is not a JSON object with a 'test' split")
    for split in [s for s in ("val", "test", "extrapolation") if s in summaries]:
        for metric in ("nmae", "nnse"):
            entry = summaries[split].get(metric) if isinstance(summaries[split], dict) else None
            mean = entry.get("mean") if isinstance(entry, dict) else None
            if type(mean) not in (int, float) or not math.isfinite(mean):
                raise ValueError(
                    f"run summary {path}: {split!r} {metric!r} needs a finite numeric 'mean'"
                )
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
    """
    lam_grid = [float(lam) for lam in lam_grid]
    if not lam_grid:
        raise ValueError("lambda grid is empty")
    plan = ExperimentPlan(
        cells=tuple(replace(spec, lam=lam) for lam in lam_grid),
        seeds=tuple(seeds),
        axis="fraction",
        axis_values=(fraction,),
    )
    records = execute_plan(ds, plan, config)
    n_seeds = len(plan.seeds)
    table = []
    # records come cell by cell; a dd cell pins its lambda to 1, so the
    # candidate is the grid entry at the record's position, not record.lam
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
    "arch", "strategy", "lambda", "width", "axis", "axis_value", "seed_mean_nmae", "seed_mean_nnse"
)
#: the summary each report row is scored on, and the prefix of its axis
REPORT_SPLITS = (("test", ""), ("extrapolation", "ext_"))


def aggregate(records: list[RunRecord]) -> list[dict]:
    """Seed-mean NMAE/NNSE per cell, width and axis value; extrapolation rows
    get an ``ext_``-prefixed axis so the schema stays flat."""
    groups: dict[tuple, dict[str, list]] = {}
    for record in records:
        key = (record.arch, record.strategy, record.lam, record.width, record.axis, record.axis_value)
        entry = groups.setdefault(key, {split: [] for split, _ in REPORT_SPLITS})
        for split, scores in entry.items():
            if split in record.summaries:
                scores.append((record.seed_metrics(split, "nmae"), record.seed_metrics(split, "nnse")))
    rows = []
    for key, entry in sorted(groups.items(), key=lambda kv: tuple(map(repr, kv[0]))):
        *cell, axis, axis_value = key
        for split, prefix in REPORT_SPLITS:
            if entry[split]:
                nmae, nnse = zip(*entry[split])
                values = (*cell, prefix + axis, axis_value, float(np.mean(nmae)), float(np.mean(nnse)))
                rows.append(dict(zip(REPORT_HEADER, values)))
    return rows


def write_report(records: list[RunRecord], path) -> list[dict]:
    rows = aggregate(records)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for row in rows:  # rows are built in header order
            writer.writerow("" if v is None else v if isinstance(v, str) else repr(v) for v in row.values())
    return rows
