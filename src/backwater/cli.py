"""Command-line driver: data generation, training, sweeps, and reports.

Subcommands mirror the experiment protocol: ``gen-data`` builds a corpus,
``train``/``evaluate`` handle single runs, ``sweep-size`` trains cells over
training fractions and ``sweep-width`` trains them over widths (each width
replaces the cells' own), ``extrapolate`` builds out-of-range evaluation
sets, ``lambda-search`` picks the loss weight, and ``report`` aggregates
run directories into one CSV.  Every run is one (cell, fraction, seed) and
has one run directory, whichever command trained it.

Most experiment commands also accept ``--config plan.json``.  A
``sweep-size`` plan trains its cells at each training fraction::

    {
      "dataset": "data/desk.csv",
      "cells": [{"arch": "sp", "strategy": "en", "lam": 0.7, "width": 16}],
      "seeds": [0, 1, 2],
      "fractions": [1.0, 0.5, 0.25, 0.1, 0.05],
      "extrapolation": false,
      "train": {"max_epochs": 1000, "batch_size": null, "initial_lr": 0.001}
    }

and a ``sweep-width`` plan trains them at each width, in place of their own::

    {
      "dataset": "data/desk.csv",
      "cells": [{"arch": "vts", "strategy": "fr", "lam": 0.5}],
      "seeds": [0, 1, 2],
      "widths": [4, 8, 16, 30, 64],
      "extrapolation": true,
      "train": {"max_epochs": 1000, "batch_size": 32}
    }

Each setting comes from its flag if one is given, else from the config
file, else from its default.  ``train`` reads only ``dataset`` and
``train`` from it, ``lambda-search`` also ``seeds``, ``sweep-size`` every
key but ``widths``, and ``sweep-width`` every key but ``fractions``; a key
the command does not read is a usage error, as is a ``seed`` in ``train``
(each run's seed is ``--seed`` or an entry of ``seeds``).
``gen-data --config`` instead wants
``{"ranges": {"s": [lo, hi, count], ...}, "grid": {"dx": .., "length": ..}}``.

Every JSON file the program reads follows one rule: an integer is a float,
a bool is neither, and a file that is not valid JSON, or not a JSON object,
is named in the error.  It covers these configs, dataset-manifest ranges,
run manifests and checkpoints, their ``network`` and ``scaler`` included;
an unknown, missing or mistyped key is a usage error (exit 2) naming it.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .data import (
    DESK_GRID,
    FULL_GRID,
    ParameterRanges,
    _checked_keys,
    _read_json,
    _write_csv,
    desk_ranges,
    full_ranges,
    generate,
    load,
    save,
)
from .harness import (
    DEFAULT_FRACTIONS,
    DEFAULT_SEEDS,
    DEFAULT_WIDTH_SWEEP,
    EXTRAPOLATION_SEED,
    ExperimentPlan,
    discover_records,
    execute_plan,
    extrapolation_dataset,
    lambda_search,
    record_dir_name,
    run_one,
    save_record,
    write_report,
)
from .losses import STRATEGIES
from .metrics import evaluate_set, write_metrics_csv
from .models import ARCHITECTURES, ModelSpec, load_model, save_model
from .network import TrainConfig
from .solver import GridSpec


# ---------------------------------------------------------------------- #
#  Shared parsing helpers
# ---------------------------------------------------------------------- #


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"training fraction {text} is not in (0, 1]")
    return value


def parse_cell(text: str) -> ModelSpec:
    """Parse ``arch[:strategy[:lam[:width]]]`` (e.g. ``vts:en:0.7:16``).

    Empty segments keep their defaults, so ``sp:dd::8`` pins the width only.
    """
    parts = text.split(":")
    if not 1 <= len(parts) <= 4:
        raise ValueError(f"cannot parse cell {text!r}")
    parts += [""] * (4 - len(parts))
    arch = parts[0]
    strategy = parts[1] or "dd"
    lam = float(parts[2]) if parts[2] else 1.0
    width = int(parts[3]) if parts[3] else None
    return ModelSpec(arch, strategy, lam, width)


@dataclass(frozen=True)
class PlanConfig:
    """An experiment command's settings; ``--config plan.json`` holds any of them."""

    dataset: str | None = None
    cells: tuple[ModelSpec, ...] = ()
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    widths: tuple[int, ...] = DEFAULT_WIDTH_SWEEP
    extrapolation: bool = False
    train: TrainConfig = TrainConfig()

    @classmethod
    def from_dict(cls, d, what: str = "config") -> "PlanConfig":
        """Read a plan object; a ``ValueError`` names an unknown or mistyped key."""
        d = dict(_checked_keys(d, cls, what))
        d["cells"] = tuple(ModelSpec(**_checked_keys(c, ModelSpec, f"{what} cell")) for c in d.get("cells", ()))
        train = _checked_keys(d.get("train", {}), TrainConfig, f"{what} 'train'")
        if "seed" in train:
            raise ValueError(f"{what} 'train' sets 'seed', which each run's --seed or 'seeds' entry replaces")
        d["train"] = TrainConfig(**train)
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


@dataclass(frozen=True)
class CorpusConfig:
    """The keys of a ``gen-data --config`` file."""

    ranges: ParameterRanges
    grid: GridSpec


def plan_config(args, reads: tuple[str, ...] | None = None) -> PlanConfig:
    """A command's settings: each from its flag if given, else from the
    ``--config`` file, else its default.  The training flags set keys of
    ``train``; ``--width`` sets the width of cells that name none.

    ``reads`` names the keys the command uses (default: all of them); a
    config file that sets another plan key is a ``ValueError`` naming it.
    """
    given = {k: v for k, v in vars(args).items() if v is not None}
    path = given.get("config")
    d = _read_json(path) if path else {}
    unread = sorted(set(d) & {f.name for f in fields(PlanConfig)} - set(reads or d))
    if unread:
        raise ValueError(
            f"config {path} sets {', '.join(map(repr, unread))}, which {args.command} does not read"
        )
    train = {k: given[k] for k in ("max_epochs", "batch_size", "initial_lr") if k in given}
    if isinstance(d.get("train", {}), dict):  # the flags and the file make one TrainConfig
        d["train"] = {**d.get("train", {}), **train}
    cfg = PlanConfig.from_dict(d, f"config {path}")
    if "cells" in given:
        given["cells"] = tuple(parse_cell(c) for c in given["cells"])
    cfg = replace(cfg, **{f.name: given[f.name] for f in fields(PlanConfig) if f.name in given})
    if "width" in given:
        cfg = replace(cfg, cells=tuple(replace(c, width=c.width or given["width"]) for c in cfg.cells))
    if not cfg.dataset:
        raise ValueError("no dataset given (use --dataset or a config file)")
    if not Path(cfg.dataset).exists():
        raise ValueError(f"dataset not found: {cfg.dataset}")
    return cfg


# ---------------------------------------------------------------------- #
#  Subcommand handlers
# ---------------------------------------------------------------------- #


def cmd_gen_data(args) -> None:
    if args.config:
        cfg = _checked_keys(_read_json(args.config), CorpusConfig, f"gen-data config {args.config}")
        ranges = ParameterRanges.from_dict(cfg["ranges"])
        grid = GridSpec(**_checked_keys(cfg["grid"], GridSpec, "grid"))
    elif args.preset == "desk":
        ranges, grid = desk_ranges(), DESK_GRID
    elif args.preset == "full":
        ranges, grid = full_ranges(), FULL_GRID
    else:
        raise ValueError("gen-data needs --preset desk|full or --config")
    ds = generate(ranges, grid, seed=args.seed)
    save(ds, args.out)
    manifest = _read_json(Path(args.out).with_suffix(".manifest.json"))
    print(json.dumps({"out": str(args.out), "counts": manifest["counts"], "csv_sha256": manifest["csv_sha256"]}))


def cmd_train(args) -> None:
    cfg = plan_config(args, reads=("dataset", "train"))
    spec = ModelSpec(args.arch, args.strategy, args.lam, args.width)
    sink: list = []
    record = run_one(load(cfg.dataset), spec, args.seed, cfg.train, args.fraction, model_sink=sink)
    run_dir = Path(args.out) / record_dir_name(record)
    save_record(record, run_dir)
    save_model(sink[0], run_dir / "model.json")
    print(json.dumps({"run_dir": str(run_dir), "test_nmae": record.seed_metrics("test", "nmae")}))


def cmd_evaluate(args) -> None:
    model = load_model(args.model)
    ds = load(plan_config(args).dataset)
    profiles = ds.profiles_in(args.split)
    if not profiles:
        raise ValueError(f"dataset has no {args.split!r} profiles")
    out = evaluate_set(model, profiles, ids=ds.indices(args.split), split=args.split)
    write_metrics_csv(out.records, args.out)
    print(json.dumps(out.summary))


def _run_sweep(args, cfg: PlanConfig, cells, fractions=(1.0,)) -> None:
    if not cfg.cells:
        raise ValueError("no cells given (use --cells or a config file)")
    ds = load(cfg.dataset)
    plan = ExperimentPlan(cells=cells, seeds=cfg.seeds, fractions=fractions, extrapolation=cfg.extrapolation)
    records = execute_plan(ds, plan, cfg.train, out_dir=args.out, ext_seed=args.ext_seed)
    rows = write_report(records, Path(args.out) / "report.csv")
    print(json.dumps({"runs": len(records), "report_rows": len(rows), "out": str(args.out)}))


def cmd_sweep_size(args) -> None:
    cfg = plan_config(args, reads=("dataset", "cells", "seeds", "fractions", "extrapolation", "train"))
    _run_sweep(args, cfg, cfg.cells, cfg.fractions)


def cmd_sweep_width(args) -> None:
    cfg = plan_config(args, reads=("dataset", "cells", "seeds", "widths", "extrapolation", "train"))
    _run_sweep(args, cfg, tuple(replace(c, width=w) for c in cfg.cells for w in cfg.widths))


def cmd_extrapolate(args) -> None:
    ds = load(plan_config(args).dataset)
    ext = extrapolation_dataset(ds, count=args.count, seed=args.seed)
    save(ext, args.out)
    print(json.dumps({"out": str(args.out), "count": len(ext.profiles)}))


def cmd_lambda_search(args) -> None:
    cfg = plan_config(args, reads=("dataset", "seeds", "train"))
    spec = ModelSpec(args.arch, args.strategy, 1.0, args.width)
    best, table = lambda_search(
        load(cfg.dataset), spec, args.grid, seeds=cfg.seeds, config=cfg.train, fraction=args.fraction
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ([row["lam"], row["seed_mean_val_nmae"], row["seed_mean_test_nmae"]] for row in table)
    _write_csv(out / "lambda_table.csv", ("lambda", "seed_mean_val_nmae", "seed_mean_test_nmae"), rows)
    (out / "best.json").write_text(json.dumps({"lam": best}))
    print(json.dumps({"best_lambda": best, "candidates": len(table)}))


def cmd_report(args) -> None:
    records = discover_records(args.runs)
    if not records:
        raise ValueError(f"no run records found under {args.runs}")
    rows = write_report(records, args.out)
    print(json.dumps({"records": len(records), "rows": len(rows), "out": str(args.out)}))


# ---------------------------------------------------------------------- #
#  Parser
# ---------------------------------------------------------------------- #


def _add_plan_flags(p):
    """The flags every command that trains shares, each read by :func:`plan_config`."""
    p.add_argument("--dataset")
    p.add_argument("--config")
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", dest="initial_lr", type=float, default=None, help="initial learning rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backwater",
        description="Backwater-profile surrogate experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="solve a parameter grid into a dataset CSV")
    p.add_argument("--preset", choices=("desk", "full"))
    p.add_argument("--config", help="JSON with 'ranges' and 'grid'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one model and write its run directory")
    _add_plan_flags(p)
    p.add_argument("--arch", choices=ARCHITECTURES, required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="dd")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--fraction", type=_fraction, default=1.0, help="training fraction in (0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a dataset split")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    for name, handler, sweep_flag in (
        ("sweep-size", cmd_sweep_size, "fractions"),
        ("sweep-width", cmd_sweep_width, "widths"),
    ):
        # sweep-width takes no --width, which would otherwise abbreviate --widths
        p = sub.add_parser(name, help=f"train cells across a {sweep_flag[:-1]} grid",
                           allow_abbrev=sweep_flag == "fractions")
        _add_plan_flags(p)
        p.add_argument("--cells", nargs="+", help="arch[:strategy[:lam[:width]]] ...")
        p.add_argument("--seeds", type=_ints, default=None)
        if sweep_flag == "fractions":
            p.add_argument("--width", type=int, default=None, help="width of cells that name none")
            p.add_argument("--fractions", type=_floats, default=None)
        else:
            p.add_argument("--widths", type=_ints, default=None)
        p.add_argument("--extrapolate", dest="extrapolation", action="store_true", default=None)
        p.add_argument("--ext-seed", type=int, default=EXTRAPOLATION_SEED)
        p.add_argument("--out", required=True)
        p.set_defaults(func=handler)

    p = sub.add_parser("extrapolate", help="build an out-of-range evaluation set")
    p.add_argument("--dataset", required=True)
    p.add_argument("--count", type=int, default=None, help="default: test-split size")
    p.add_argument("--seed", type=int, default=EXTRAPOLATION_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extrapolate)

    p = sub.add_parser("lambda-search", help="pick lambda by validation NMAE")
    _add_plan_flags(p)
    p.add_argument("--arch", choices=ARCHITECTURES, required=True)
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--grid", type=_floats, default=tuple(round(0.1 * k, 1) for k in range(1, 10)))
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--fraction", type=_fraction, default=1.0, help="training fraction in (0, 1]")
    p.add_argument("--seeds", type=_ints, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lambda_search)

    p = sub.add_parser("report", help="aggregate run directories into report.csv")
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
