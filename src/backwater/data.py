"""Profile corpus: grid generation, splitting, scaling, views, persistence.

A corpus is built by solving every combination of a uniform 5-parameter grid
(slope, width, roughness, dam height, discharge), split 70/15/15 into
train/val/test by a seeded shuffle, and standardized with statistics from the
training split only.  Three "views" rearrange the same depths into the sample
layouts the surrogate architectures train on.

Scenario parameters are read in one place, :func:`~.hydraulics.scenario_table`,
and standardized in one, :meth:`Scaler.scale_table`.  A network input row is
those five columns after the scaled station ``x`` (sp) or depth ``h`` (int),
or alone (vts); :func:`~.models.predict` forms its rows the same way.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hydraulics import ChannelScenario, ConvergenceError, InsufficientEnergyError, scenario_table
from .solver import MIXED, SUBCRITICAL, GridSpec, WaterProfile, solve_profiles

FORMAT_VERSION = 1
PARAM_NAMES = ("s", "b", "n", "zd", "Q")
SPLIT_NAMES = ("train", "val", "test")

#: Full-scale parameter grid: 7*7*7*6*5 = 10290 scenarios, both flow regimes.
FULL_RANGES = {
    "s": (5e-4, 2e-2, 7),
    "b": (5.0, 50.0, 7),
    "n": (0.01, 0.05, 7),
    "zd": (1.0, 5.0, 6),
    "Q": (10.0, 300.0, 5),
}
FULL_GRID = GridSpec(dx=10.0, length=5000.0)

#: Desk-scale grid: 5*5*5*2*2 = 500 scenarios on a 101-station channel.  The
#: ranges stay on the mild-slope side of the full box so every cell solves
#: (zero rejections, a clean 350/75/75 split) and so the ~17 scenarios a 5%
#: training fraction leaves are dense enough in parameter space for the nets
#: to generalize at all; over the full box that few profiles just memorize.
DESK_RANGES = {
    "s": (1e-3, 3e-3, 5),
    "b": (8.0, 16.0, 5),
    "n": (0.028, 0.04, 5),
    "zd": (2.0, 3.5, 2),
    "Q": (40.0, 80.0, 2),
}
DESK_GRID = GridSpec(dx=10.0, length=1000.0)


@dataclass(frozen=True)
class ParameterRanges:
    """Uniform (min, max, count) grid per scenario parameter."""

    s: tuple[float, float, int]
    b: tuple[float, float, int]
    n: tuple[float, float, int]
    zd: tuple[float, float, int]
    Q: tuple[float, float, int]

    def __post_init__(self):
        for name in PARAM_NAMES:
            lo, hi, count = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi) and lo > 0.0):
                raise ValueError(f"range for {name!r} must be positive and finite")
            if count < 1 or lo > hi:
                raise ValueError(f"bad grid for {name!r}: need count >= 1 and min <= max")
            if count >= 2 and not lo < hi:
                raise ValueError(f"range for {name!r} needs min < max")

    @classmethod
    def from_dict(cls, d: dict) -> "ParameterRanges":
        """Read ``{name: [min, max, count]}`` for each of the five parameters.

        Raises:
            ValueError: naming a missing, unknown or malformed parameter.
        """
        if not isinstance(d, dict):
            raise ValueError("ranges must be an object of [min, max, count] per parameter")
        unknown = sorted(set(d) - set(PARAM_NAMES))
        if unknown:
            raise ValueError(f"unknown ranges keys: {unknown}")
        ranges = {}
        for name in PARAM_NAMES:
            if name not in d:
                raise ValueError(f"ranges lacks {name!r}")
            try:
                lo, hi, count = d[name]
                ranges[name] = (float(lo), float(hi), int(count))
                if ranges[name] != (lo, hi, count):  # a string, or a fractional count
                    raise TypeError(f"{[lo, hi, count]} are not two numbers and an integer")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"range for {name!r} must be [min, max, count]: {exc}") from exc
        return cls(**ranges)

    def to_dict(self) -> dict:
        return {k: list(getattr(self, k)) for k in PARAM_NAMES}

    def values(self, name: str) -> np.ndarray:
        lo, hi, count = getattr(self, name)
        return np.linspace(lo, hi, count)

    @property
    def n_combinations(self) -> int:
        return int(np.prod([getattr(self, k)[2] for k in PARAM_NAMES]))

    def scenarios(self):
        """All grid combinations in deterministic (s, b, n, zd, Q) order."""
        for row in itertools.product(*(self.values(k).tolist() for k in PARAM_NAMES)):
            yield ChannelScenario(*row)


@dataclass(frozen=True)
class Scaler:
    """Per-feature standardization statistics (training split only).

    Features are named physical quantities, not column positions, so each
    view can pick the statistics for the columns it actually uses:
    ``x`` station coordinate, ``h`` depth, and the five scenario parameters.
    """

    mean: dict[str, float]
    std: dict[str, float]

    def scale(self, name: str, values):
        sd = self.std[name]
        if sd == 0.0:
            raise ValueError(f"feature {name!r} is constant in the training split")
        return (np.asarray(values, dtype=float) - self.mean[name]) / sd

    def scale_table(self, table: np.ndarray) -> np.ndarray:
        """A (P, 5) :func:`~.hydraulics.scenario_table` with each column standardized.

        Every architecture's network inputs end in these five columns.
        """
        return np.column_stack([self.scale(k, table[:, j]) for j, k in enumerate(PARAM_NAMES)])

    def inverse(self, name: str, values):
        return np.asarray(values, dtype=float) * self.std[name] + self.mean[name]

    def to_dict(self) -> dict:
        return {"mean": dict(self.mean), "std": dict(self.std)}


def fit_scaler(profiles: list[WaterProfile]) -> Scaler:
    """Fit standardization statistics on a set of (training) profiles."""
    if not profiles:
        raise ValueError("cannot fit a scaler on an empty training split")
    series = {
        "x": np.concatenate([p.grid.stations for p in profiles]),
        "h": np.concatenate([p.depths for p in profiles]),
    }
    series.update(zip(PARAM_NAMES, scenario_table([p.scenario for p in profiles]).T.copy()))
    return Scaler(
        mean={k: float(np.mean(v)) for k, v in series.items()},
        std={k: float(np.std(v)) for k, v in series.items()},
    )


@dataclass
class ProfileDataset:
    """Solved profiles plus split tags, scaler, and a generation manifest."""

    profiles: list[WaterProfile]
    split: list[str]
    scaler: Scaler
    grid: GridSpec
    manifest: dict

    def __post_init__(self):
        if len(self.split) != len(self.profiles):
            raise ValueError("one split tag per profile required")

    def indices(self, split: str) -> np.ndarray:
        if split not in SPLIT_NAMES:
            raise ValueError(f"unknown split {split!r}")
        return np.array([i for i, tag in enumerate(self.split) if tag == split], dtype=int)

    def profiles_in(self, split: str) -> list[WaterProfile]:
        return [self.profiles[i] for i in self.indices(split)]

    def content_hash(self) -> str:
        """Checksum of scenario parameters, depths, and split tags."""
        digest = hashlib.sha256()
        table = scenario_table([p.scenario for p in self.profiles])
        for row, profile, tag in zip(table, self.profiles, self.split):
            digest.update(row.tobytes())
            digest.update(profile.depths.tobytes())
            digest.update(tag.encode())
        return digest.hexdigest()


def split_sizes(n: int) -> tuple[int, int, int]:
    """70/15/15 split with the rounding remainder assigned to train."""
    n_val = int(math.floor(0.15 * n))
    n_test = int(math.floor(0.15 * n))
    return n - n_val - n_test, n_val, n_test


def generate(ranges: ParameterRanges, grid: GridSpec, seed: int) -> ProfileDataset:
    """Solve the full scenario grid in one batched march, split it, and fit the scaler.

    Scenarios whose subcritical march fails are rejected and logged in the
    manifest; more than 10% rejections means the ranges are poorly chosen
    and raises instead of silently shrinking the corpus.
    """
    profiles: list[WaterProfile] = []
    rejected: list[dict] = []
    scenarios = list(ranges.scenarios())
    rows = scenario_table(scenarios).tolist()
    for row, outcome in zip(rows, solve_profiles(scenarios, grid)):
        if isinstance(outcome, WaterProfile):
            profiles.append(outcome)
        elif isinstance(outcome, (InsufficientEnergyError, ConvergenceError)):
            rejected.append({**dict(zip(PARAM_NAMES, row)), "reason": str(outcome)})
        else:
            raise outcome
    total = ranges.n_combinations
    if len(rejected) > 0.10 * total:
        raise ValueError(
            f"{len(rejected)}/{total} scenarios rejected (>10%): ranges poorly chosen"
        )

    split = assign_splits(len(profiles), seed)
    train = [p for p, tag in zip(profiles, split) if tag == "train"]
    scaler = fit_scaler(train)
    manifest = {
        "format_version": FORMAT_VERSION,
        "seed": seed,
        "split_seed": seed,
        "ranges": ranges.to_dict(),
        "dx": grid.dx,
        "length": grid.length,
        "rejected": rejected,
        "counts": {
            "grid": total,
            "retained": len(profiles),
            "train": len(train),
            "val": split.count("val"),
            "test": split.count("test"),
        },
    }
    return ProfileDataset(profiles, split, scaler, grid, manifest)


def assign_splits(n: int, seed: int) -> list[str]:
    """Tag n profiles train/val/test by a seeded shuffle of their indices."""
    n_train, n_val, _ = split_sizes(n)
    order = np.random.default_rng(seed).permutation(n)
    split = [""] * n
    for rank, idx in enumerate(order):
        if rank < n_train:
            split[idx] = "train"
        elif rank < n_train + n_val:
            split[idx] = "val"
        else:
            split[idx] = "test"
    return split


# ---------------------------------------------------------------------- #
#  Sample views
# ---------------------------------------------------------------------- #


@dataclass
class SampleBatch:
    """Training-ready samples: scaled inputs, metre targets, raw aux values.

    ``targets`` is (M, 1) for the pointwise views and (M, n_points) for
    ``vts``.  ``aux`` carries the unscaled scenario parameters (and the
    station spacing ``dx``) aligned with the samples so physics losses can be
    evaluated in physical units.
    """

    inputs: np.ndarray
    targets: np.ndarray
    aux: dict

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _scenario_samples(ds: ProfileDataset, split: str, repeats: int):
    """A split's profile indices, then its standardized scenario rows and its
    unscaled parameter columns (plus ``dx``), each repeated once per sample."""
    idx = ds.indices(split)
    table = scenario_table([ds.profiles[i].scenario for i in idx])
    aux = {k: np.repeat(col, repeats) for k, col in zip(PARAM_NAMES, table.T)}
    aux["dx"] = ds.grid.dx
    return idx, np.repeat(ds.scaler.scale_table(table), repeats, axis=0), aux


def view_sp(ds: ProfileDataset, split: str = "train") -> SampleBatch:
    """Pointwise samples ([x, s, b, n, zd, Q] -> h), one per station per profile."""
    idx, params, aux = _scenario_samples(ds, split, ds.grid.n_points)
    x = ds.scaler.scale("x", np.tile(ds.grid.stations, len(idx)))
    targets = np.concatenate([ds.profiles[i].depths for i in idx])[:, None]
    return SampleBatch(np.column_stack([x, params]), targets, aux)


def view_int(ds: ProfileDataset, split: str = "train") -> SampleBatch:
    """Adjacent-pair samples ([h_i, s, b, n, zd, Q] -> h_{i+1}); jump pairs kept."""
    idx, params, aux = _scenario_samples(ds, split, ds.grid.n_points - 1)
    h_in = ds.scaler.scale("h", np.concatenate([ds.profiles[i].depths[:-1] for i in idx]))
    targets = np.concatenate([ds.profiles[i].depths[1:] for i in idx])[:, None]
    return SampleBatch(np.column_stack([h_in, params]), targets, aux)


def view_vts(ds: ProfileDataset, split: str = "train") -> SampleBatch:
    """Whole-profile samples ([s, b, n, zd, Q] -> depth vector of n_points)."""
    idx, params, aux = _scenario_samples(ds, split, 1)
    for i in idx:
        if ds.profiles[i].grid != ds.grid:
            raise ValueError("all profiles in a VTS view must share one grid")
    targets = np.vstack([ds.profiles[i].depths for i in idx]) if len(idx) else np.empty((0, ds.grid.n_points))
    return SampleBatch(params, targets, aux)


# ---------------------------------------------------------------------- #
#  Subsampling (dataset-size stress tests)
# ---------------------------------------------------------------------- #


def subsample_training(ds: ProfileDataset, fraction: float, seed: int) -> ProfileDataset:
    """Keep ceil(fraction * n_train) whole training profiles; val/test untouched.

    The scaler is refitted on the reduced training split so the view pipeline
    behaves exactly as if the smaller corpus had been generated directly.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    train_idx = ds.indices("train")
    keep = math.ceil(fraction * len(train_idx))
    if keep < 2:
        raise ValueError("subsample would retain fewer than 2 training profiles")
    chosen = np.random.default_rng(seed).permutation(len(train_idx))[:keep]
    kept = set(train_idx[np.sort(chosen)].tolist())

    profiles, split = [], []
    for i, (profile, tag) in enumerate(zip(ds.profiles, ds.split)):
        if tag == "train" and i not in kept:
            continue
        profiles.append(profile)
        split.append(tag)
    scaler = fit_scaler([p for p, tag in zip(profiles, split) if tag == "train"])
    manifest = dict(ds.manifest)
    manifest["subsample"] = {"fraction": fraction, "seed": seed, "kept_train": keep}
    counts = dict(manifest.get("counts", {}))
    counts["train"] = keep
    counts["retained"] = len(profiles)
    manifest["counts"] = counts
    return ProfileDataset(profiles, split, scaler, ds.grid, manifest)


# ---------------------------------------------------------------------- #
#  Persistence
# ---------------------------------------------------------------------- #


def _manifest_path(path) -> Path:
    return Path(path).with_suffix(".manifest.json")


def save(ds: ProfileDataset, path) -> None:
    """Write the corpus as a CSV of profiles plus a JSON manifest.

    CSV header is `s,b,n,zd,Q,h0..h{N-1}`; values are shortest round-trip
    float representations, so loading is bit-exact.  The manifest records
    generation settings, splits, regimes, and the CSV checksum.
    """
    path = Path(path)
    n_pts = ds.grid.n_points
    header = list(PARAM_NAMES) + [f"h{i}" for i in range(n_pts)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        table = scenario_table([p.scenario for p in ds.profiles]).tolist()
        for params, profile in zip(table, ds.profiles):
            writer.writerow([repr(v) for v in params + profile.depths.tolist()])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()

    manifest = dict(ds.manifest)
    manifest["format_version"] = FORMAT_VERSION
    manifest["csv_sha256"] = digest
    manifest["split"] = list(ds.split)
    manifest["regimes"] = [p.regime for p in ds.profiles]
    manifest["jump_indices"] = [
        (None if p.jump_index is None else int(p.jump_index)) for p in ds.profiles
    ]
    with open(_manifest_path(path), "w") as fh:
        json.dump(manifest, fh, indent=1)


def _check_manifest_row(k: int, tag, regime, jump, n_pts: int) -> None:
    """Raise a ``ValueError`` naming the key if row k's split, regime or jump is invalid."""
    if tag not in SPLIT_NAMES:
        raise ValueError(f"dataset manifest 'split' row {k}: {tag!r} is not one of {SPLIT_NAMES}")
    if regime not in (SUBCRITICAL, MIXED):
        raise ValueError(f"dataset manifest 'regimes' row {k}: {regime!r} is not a regime")
    if regime == SUBCRITICAL and jump is not None:
        raise ValueError(
            f"dataset manifest 'jump_indices' row {k}: a subcritical profile has no jump, got {jump!r}"
        )
    if regime == MIXED and not (type(jump) is int and 1 <= jump < n_pts):
        raise ValueError(
            f"dataset manifest 'jump_indices' row {k}: a mixed profile needs an integer "
            f"station in [1, {n_pts}), got {jump!r}"
        )


def _csv_profile(k: int, row: list[str], grid: GridSpec, regime: str, jump) -> WaterProfile:
    """CSV row k as a profile; a ``ValueError`` names the row and, for a depth, its column."""
    try:
        if len(row) != 5 + grid.n_points:
            raise ValueError(f"{len(row)} fields, not 5 parameters and {grid.n_points} depths")
        depths = np.array([float(v) for v in row[5:]])
        bad = np.flatnonzero(~(np.isfinite(depths) & (depths > 0.0)))
        if bad.size:
            raise ValueError(f"depth 'h{bad[0]}' = {depths[bad[0]]!r} is not positive and finite")
        return WaterProfile(ChannelScenario(*(float(v) for v in row[:5])), grid, depths, regime, jump)
    except ValueError as exc:
        raise ValueError(f"dataset CSV row {k}: {exc}") from exc


def load(path) -> ProfileDataset:
    """Load a corpus saved by :func:`save`, verifying version and checksum.

    A missing manifest key, a per-profile manifest list whose length is not
    the CSV's row count, a split tag outside :data:`SPLIT_NAMES`, an unknown
    regime, a jump index that does not fit its regime, or a non-finite or
    non-positive value raises a ``ValueError`` that names the key and row.
    """
    path = Path(path)
    with open(_manifest_path(path)) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported dataset format version")
    per_profile = ("split", "regimes", "jump_indices")
    missing = [k for k in ("csv_sha256", "dx", "length", *per_profile) if k not in manifest]
    if missing:
        raise ValueError(f"dataset manifest lacks {', '.join(map(repr, missing))}")
    for key in per_profile:
        if not isinstance(manifest[key], list):
            raise ValueError(f"dataset manifest {key!r} must be a list")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != manifest["csv_sha256"]:
        raise ValueError("dataset CSV checksum mismatch (truncated or edited file)")

    grid = GridSpec(dx=manifest["dx"], length=manifest["length"])
    n_pts = grid.n_points
    profiles = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:5] != list(PARAM_NAMES) or len(header) != 5 + n_pts:
            raise ValueError("dataset CSV header does not match its manifest")
        # the reader comes last so that zip stops without consuming an unpaired row
        for k, (*tags, row) in enumerate(zip(*(manifest[key] for key in per_profile), reader)):
            _check_manifest_row(k, *tags, n_pts)
            profiles.append(_csv_profile(k, row, grid, *tags[1:]))
        n_rows = len(profiles) + sum(1 for _ in reader)
    for key in per_profile:
        if len(manifest[key]) != n_rows:
            raise ValueError(f"dataset manifest {key!r} needs one entry per CSV row ({n_rows})")
    split = list(manifest["split"])
    # eval-only corpora (e.g. extrapolation sets) carry no train profiles;
    # their scaler is never consulted, so fit it on everything
    train_profiles = [p for p, tag in zip(profiles, split) if tag == "train"]
    scaler = fit_scaler(train_profiles or profiles)
    loaded = {k: v for k, v in manifest.items() if k not in (*per_profile, "csv_sha256")}
    return ProfileDataset(profiles, split, scaler, grid, loaded)


def desk_ranges() -> ParameterRanges:
    return ParameterRanges.from_dict(DESK_RANGES)


def full_ranges() -> ParameterRanges:
    return ParameterRanges.from_dict(FULL_RANGES)
