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
Every JSON file the program reads goes through :func:`_read_json`, and each
value read against a type hint through :func:`_fits`; every CSV table it
keeps is written by :func:`_write_csv` and read by :func:`_read_csv`.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import reprlib
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
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


# ---------------------------------------------------------------------- #
#  JSON and CSV files
# ---------------------------------------------------------------------- #


def _read_json(path) -> dict:
    """The JSON object in the file at ``path``; a ``ValueError`` names a file that is not one."""
    try:
        value = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ValueError(f"{path} is not a JSON object")
    return value


def _write_csv(path, header, rows) -> None:
    """Write a table's header and rows, a string as it is and any other value
    as its ``repr`` (a float's shortest round-trip decimal)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else repr(v) for v in row] for row in rows)


def _read_csv(path, header, what: str, convert) -> list:
    """``convert`` of each row of a table with this ``header``; a ``ValueError`` names
    the file and a row's 0-based index: ``<what> <path> row <k>: <problem>``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, [])
        if found != list(header):
            pairs = enumerate(itertools.zip_longest(found, header))
            k, (got, want) = next((k, pair) for k, pair in pairs if pair[0] != pair[1])
            raise ValueError(f"{what} {path} header column {k} is {got!r}, not {want!r}")
        rows = []
        for k, row in enumerate(reader):
            try:
                if len(row) != len(found):
                    raise ValueError(f"{len(row)} fields, not {len(found)}")
                rows.append(convert(row))
            except ValueError as exc:
                raise ValueError(f"{what} {path} row {k}: {exc}") from exc
    return rows


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a type hint.

    An integer is a float when it converts to a finite one; a bool is
    neither.  ``tuple[X, ...]`` takes a list as ``list[X]`` does, and a
    fixed-length ``tuple[...]`` a list or a tuple.  A dataclass hint takes
    an object, which the dataclass's own reader checks.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list or args[-1:] == (Ellipsis,):
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if is_dataclass(hint):
        return isinstance(value, dict)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and len(value) == len(args) and all(map(_fits, value, args))
    if origin is dict:  # a JSON object's keys are strings
        return isinstance(value, dict) and all(_fits(v, args[1]) for v in value.values())
    allowed = args or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, int) and int not in allowed:
        try:
            return float in allowed and math.isfinite(value)
        except OverflowError:  # an integer beyond float range
            return False
    return isinstance(value, allowed)


#: The JSON name of each plain type a hint may hold.
_JSON_NAMES = {float: "number", int: "integer", bool: "boolean", str: "string", type(None): "null", dict: "object"}


def _json_name(hint, plural: bool = False) -> str:
    """What a value fitting ``hint`` is called in JSON, e.g. ``list of objects``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    s = "s" if plural else ""
    if origin is list or args[-1:] == (Ellipsis,):
        return f"list{s} of {_json_name(args[0], plural=True)}"
    if origin is tuple:
        return f"list{s} [{', '.join(map(_json_name, args))}]"
    if origin is dict:
        return f"object{s} of {_json_name(args[1], plural=True)}"
    if is_dataclass(hint):
        return f"object{s}"
    if args:  # a union
        return " or ".join(_json_name(a, plural) for a in args)
    return _JSON_NAMES[hint] + s


#: Shows a few leading items of a value that does not fit, however long it is.
_SHORT_REPR = reprlib.Repr()
_SHORT_REPR.maxlevel, _SHORT_REPR.maxlist, _SHORT_REPR.maxdict = 2, 5, 5
_SHORT_REPR.maxstring = _SHORT_REPR.maxother = _SHORT_REPR.maxlong = 24


def _checked_type(what: str, key: str, value, hint):
    if not _fits(value, hint):
        name = _json_name(hint)
        article = "an" if name[0] in "aeiou" else "a"
        raise ValueError(f"{what} {key!r} must be {article} {name}, not {_SHORT_REPR.repr(value)}")


def _checked_keys(d, cls, what: str) -> dict:
    """``d`` if it is an object the dataclass ``cls`` can be built from.

    A field with a default may be left out; one with a ``default_factory``
    (a run's history, records, summaries) is filled in from elsewhere, so
    ``d`` may not hold it.  A ``ValueError`` names the missing keys, else
    the unexpected ones, else the first value whose type does not fit.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    read = [f for f in fields(cls) if f.default_factory is MISSING]
    missing = [f.name for f in read if f.default is MISSING and f.name not in d]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")
    unexpected = sorted(set(d) - {f.name for f in read})
    if unexpected:
        raise ValueError(f"{what} has unexpected {', '.join(map(repr, unexpected))}")
    hints = typing.get_type_hints(cls)
    for f in read:
        if f.name in d:
            _checked_type(what, f.name, d[f.name], hints[f.name])
    return d


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
    def from_dict(cls, d) -> "ParameterRanges":
        """Read ``{name: [min, max, count]}`` for each of the five parameters;
        a ``ValueError`` names a missing, unexpected or mistyped one."""
        d = _checked_keys(d, cls, "'ranges'")
        return cls(**{k: (float(lo), float(hi), count) for k, (lo, hi, count) in d.items()})

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

    def __post_init__(self):
        features = ("x", "h", *PARAM_NAMES)
        for name, stats in (("mean", self.mean), ("std", self.std)):
            wrong = [f"lacks feature {k!r}" for k in features if k not in stats]
            wrong += [f"has unexpected feature {k!r}" for k in stats if k not in features]
            if wrong:
                raise ValueError(f"scaler {name!r} {wrong[0]}")

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


def _sort_outcomes(scenarios, outcomes) -> tuple[list[WaterProfile], list[dict]]:
    """Split solve outcomes into kept profiles and rejection entries.

    A rejection (an ``InsufficientEnergyError`` or ``ConvergenceError``) is
    logged as ``{s, b, n, zd, Q, reason}``; any other exception is raised.
    """
    profiles: list[WaterProfile] = []
    rejected: list[dict] = []
    for row, outcome in zip(scenario_table(scenarios).tolist(), outcomes):
        if isinstance(outcome, WaterProfile):
            profiles.append(outcome)
        elif isinstance(outcome, (InsufficientEnergyError, ConvergenceError)):
            rejected.append({**dict(zip(PARAM_NAMES, row)), "reason": str(outcome)})
        else:
            raise outcome
    return profiles, rejected


def generate(ranges: ParameterRanges, grid: GridSpec, seed: int) -> ProfileDataset:
    """Solve the full scenario grid in one batched march, split it, and fit the scaler.

    Scenarios whose subcritical march fails are rejected and logged in the
    manifest; more than 10% rejections means the ranges are poorly chosen
    and raises instead of silently shrinking the corpus.
    """
    scenarios = list(ranges.scenarios())
    profiles, rejected = _sort_outcomes(scenarios, solve_profiles(scenarios, grid))
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


def _dataset_header(grid: GridSpec) -> list[str]:
    return [*PARAM_NAMES, *(f"h{i}" for i in range(grid.n_points))]


def save(ds: ProfileDataset, path) -> None:
    """Write the corpus as a CSV of profiles, `s,b,n,zd,Q,h0..h{N-1}`, plus a
    JSON manifest of generation settings, splits, regimes, and the CSV checksum."""
    path = Path(path)
    table = scenario_table([p.scenario for p in ds.profiles]).tolist()
    rows = (params + profile.depths.tolist() for params, profile in zip(table, ds.profiles))
    _write_csv(path, _dataset_header(ds.grid), rows)
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


def _csv_profile(row: list[str]) -> tuple[ChannelScenario, np.ndarray]:
    """A dataset CSV row as its scenario and depths; a ``ValueError`` names a bad depth's column."""
    values = [float(v) for v in row]
    depths = np.array(values[5:])
    bad = np.flatnonzero(~(np.isfinite(depths) & (depths > 0.0)))
    if bad.size:
        raise ValueError(f"depth 'h{bad[0]}' = {depths[bad[0]]!r} is not positive and finite")
    return ChannelScenario(*values[:5]), depths


def load(path) -> ProfileDataset:
    """Load a corpus saved by :func:`save`, verifying version and checksum.

    A missing manifest key, a CSV header other than the manifest grid's, a
    per-profile manifest list whose length is not the CSV's row count, a
    split tag outside :data:`SPLIT_NAMES`, an unknown regime, a jump index
    that does not fit its regime, or a non-finite or non-positive value
    raises a ``ValueError`` that names the key and row.
    """
    path = Path(path)
    manifest = _read_json(_manifest_path(path))
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError("unsupported dataset format version")
    per_profile = ("split", "regimes", "jump_indices")
    missing = [k for k in ("csv_sha256", "dx", "length", *per_profile) if k not in manifest]
    if missing:
        raise ValueError(f"dataset manifest lacks {', '.join(map(repr, missing))}")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != manifest["csv_sha256"]:
        raise ValueError("dataset CSV checksum mismatch (truncated or edited file)")

    grid = GridSpec(dx=manifest["dx"], length=manifest["length"])
    rows = _read_csv(path, _dataset_header(grid), "dataset CSV", _csv_profile)
    for key in per_profile:
        if not _fits(manifest[key], list):
            raise ValueError(f"dataset manifest {key!r} must be a list")
        if len(manifest[key]) != len(rows):
            raise ValueError(f"dataset manifest {key!r} needs one entry per CSV row ({len(rows)})")
    profiles = []
    for k, ((scenario, depths), *tags) in enumerate(zip(rows, *(manifest[key] for key in per_profile))):
        _check_manifest_row(k, *tags, grid.n_points)
        profiles.append(WaterProfile(scenario, grid, depths, *tags[1:]))
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
