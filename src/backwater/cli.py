"""Command-line driver: data generation, training, sweeps, and reports.

Subcommands mirror the experiment protocol: ``gen-data`` builds a corpus,
``train``/``evaluate`` handle single runs, ``sweep-size``/``sweep-width``
run the stress-test axes, ``extrapolate`` builds out-of-range evaluation
sets, ``lambda-search`` picks the loss weight, and ``report`` aggregates
run directories into one CSV.

Most experiment commands also accept ``--config plan.json``::

    {
      "dataset": "data/desk.csv",
      "cells": [{"arch": "sp", "strategy": "en", "lam": 0.7, "width": 16}],
      "seeds": [0, 1, 2],
      "fractions": [1.0, 0.5, 0.25, 0.1, 0.05],
      "widths": [4, 8, 16, 30, 64],
      "extrapolation": false,
      "train": {"max_epochs": 1000, "batch_size": null, "initial_lr": 0.001}
    }

Explicit flags override config values.  ``gen-data --config`` instead wants
``{"ranges": {"s": [lo, hi, count], ...}, "grid": {"dx": .., "length": ..}}``.
A config key with an unknown name or a value of the wrong JSON type is a
usage error (exit 2) that names the key.
"""

from __future__ import annotations

import argparse
import json
import typing
from dataclasses import MISSING, fields, replace
from pathlib import Path

from .data import (
    DESK_GRID,
    FULL_GRID,
    ParameterRanges,
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


#: the JSON type of each plan-config value
PLAN_CONFIG_TYPES = {
    "dataset": str,
    "cells": list[dict],
    "seeds": list[int],
    "fractions": list[float],
    "widths": list[int],
    "extrapolation": bool,
    "train": dict,
}


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a type hint; an integer is a float, a bool is neither."""
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    return isinstance(value, allowed) or (float in allowed and isinstance(value, int))


def _checked_type(what: str, key: str, value, hint):
    if not _fits(value, hint):
        name = str(hint) if typing.get_args(hint) else hint.__name__
        raise ValueError(f"{what} {key!r} must be {name}, not {value!r}")


def _read_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"malformed config {path}: expected a JSON object")
    return cfg


def _checked_keys(d, cls, what: str) -> dict:
    """``d`` if it is an object the dataclass ``cls`` can be built from.

    Raises:
        ValueError: naming the unknown keys, the first required key missing,
            or the first value whose JSON type does not fit its field.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name in d:
            _checked_type(what, f.name, d[f.name], hints[f.name])
        elif f.default is MISSING:
            raise ValueError(f"{what} lacks {f.name!r}")
    return d


def _plan_config(path) -> dict:
    """The plan config at ``path`` (``{}`` for none), its values type-checked."""
    cfg = _read_config(path) if path else {}
    for key, hint in PLAN_CONFIG_TYPES.items():
        if key in cfg:
            _checked_type("config", key, cfg[key], hint)
    return cfg


def _train_config(args, cfg: dict) -> TrainConfig:
    base = dict(_checked_keys(cfg.get("train", {}), TrainConfig, "train config"))
    if getattr(args, "max_epochs", None) is not None:
        base["max_epochs"] = args.max_epochs
    if getattr(args, "batch_size", None) is not None:
        base["batch_size"] = args.batch_size
    if getattr(args, "lr", None) is not None:
        base["initial_lr"] = args.lr
    return TrainConfig(**base)


def _plan_cells(args, cfg: dict) -> tuple[ModelSpec, ...]:
    if getattr(args, "cells", None):
        cells = tuple(parse_cell(c) for c in args.cells)
    elif cfg.get("cells"):
        cells = tuple(ModelSpec(**_checked_keys(c, ModelSpec, "cell")) for c in cfg["cells"])
    else:
        raise ValueError("no cells given (use --cells or a config file)")
    if getattr(args, "width", None) is not None:
        cells = tuple(c if c.width is not None else replace(c, width=args.width) for c in cells)
    return cells


def _dataset(args, cfg: dict):
    path = getattr(args, "dataset", None) or cfg.get("dataset")
    if not path:
        raise ValueError("no dataset given (use --dataset or a config file)")
    if not Path(path).exists():
        raise ValueError(f"dataset not found: {path}")
    return load(path)


# ---------------------------------------------------------------------- #
#  Subcommand handlers
# ---------------------------------------------------------------------- #


def cmd_gen_data(args) -> None:
    if args.config:
        cfg = _read_config(args.config)
        for key in ("ranges", "grid"):
            if key not in cfg:
                raise ValueError(f"gen-data config {args.config} lacks {key!r}")
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
    manifest = json.loads(Path(args.out).with_suffix(".manifest.json").read_text())
    print(json.dumps({"out": str(args.out), "counts": manifest["counts"], "csv_sha256": manifest["csv_sha256"]}))


def cmd_train(args) -> None:
    cfg = _plan_config(args.config)
    ds = _dataset(args, cfg)
    spec = ModelSpec(args.arch, args.strategy, args.lam, args.width)
    config = _train_config(args, cfg)
    axis = "none" if args.fraction is None else "fraction"
    sink: list = []
    record = run_one(ds, spec, args.seed, config, axis, args.fraction, model_sink=sink)
    run_dir = Path(args.out) / record_dir_name(record)
    save_record(record, run_dir)
    save_model(sink[0], run_dir / "model.json")
    print(json.dumps({"run_dir": str(run_dir), "test_nmae": record.seed_metrics("test", "nmae")}))


def cmd_evaluate(args) -> None:
    model = load_model(args.model)
    ds = _dataset(args, {})
    profiles = ds.profiles_in(args.split)
    if not profiles:
        raise ValueError(f"dataset has no {args.split!r} profiles")
    out = evaluate_set(model, profiles, ids=ds.indices(args.split), split=args.split)
    write_metrics_csv(out.records, args.out)
    print(
        json.dumps(
            {
                "nmae": out.nmae_summary.to_dict(),
                "nnse": out.nnse_summary.to_dict(),
                "excluded": out.excluded,
            }
        )
    )


def _run_sweep(args, cfg: dict, axis: str, values) -> None:
    ds = _dataset(args, cfg)
    cells = _plan_cells(args, cfg)
    seeds = args.seeds if args.seeds is not None else tuple(cfg.get("seeds", DEFAULT_SEEDS))
    extrapolation = bool(args.extrapolate or cfg.get("extrapolation", False))
    plan = ExperimentPlan(
        cells=cells,
        seeds=seeds,
        axis=axis,
        axis_values=tuple(values),
        extrapolation=extrapolation,
    )
    records = execute_plan(
        ds, plan, _train_config(args, cfg), out_dir=args.out, ext_seed=args.ext_seed
    )
    rows = write_report(records, Path(args.out) / "report.csv")
    print(json.dumps({"runs": len(records), "report_rows": len(rows), "out": str(args.out)}))


def cmd_sweep_size(args) -> None:
    cfg = _plan_config(args.config)
    fractions = args.fractions or tuple(cfg.get("fractions", DEFAULT_FRACTIONS))
    _run_sweep(args, cfg, "fraction", fractions)


def cmd_sweep_width(args) -> None:
    cfg = _plan_config(args.config)
    widths = args.widths or tuple(cfg.get("widths", DEFAULT_WIDTH_SWEEP))
    _run_sweep(args, cfg, "width", widths)


def cmd_extrapolate(args) -> None:
    ds = _dataset(args, {})
    ext = extrapolation_dataset(ds, count=args.count, seed=args.seed)
    save(ext, args.out)
    print(json.dumps({"out": str(args.out), "count": len(ext.profiles)}))


def cmd_lambda_search(args) -> None:
    cfg = _plan_config(args.config)
    ds = _dataset(args, cfg)
    spec = ModelSpec(args.arch, args.strategy, 1.0, args.width)
    seeds = args.seeds if args.seeds is not None else tuple(cfg.get("seeds", DEFAULT_SEEDS))
    best, table = lambda_search(
        ds,
        spec,
        args.grid,
        seeds=seeds,
        config=_train_config(args, cfg),
        fraction=args.fraction,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "lambda_table.csv", "w", newline="") as fh:
        fh.write("lambda,seed_mean_val_nmae,seed_mean_test_nmae\n")
        for row in table:
            fh.write(f"{row['lam']!r},{row['seed_mean_val_nmae']!r},{row['seed_mean_test_nmae']!r}\n")
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


def _add_train_flags(p, with_seed=True):
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None, help="initial learning rate")
    if with_seed:
        p.add_argument("--seed", type=int, default=0)


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
    p.add_argument("--dataset")
    p.add_argument("--config")
    p.add_argument("--arch", choices=ARCHITECTURES, required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="dd")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--fraction", type=_fraction, default=None, help="training fraction in (0, 1]")
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a dataset split")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    for name, handler, axis_flag in (
        ("sweep-size", cmd_sweep_size, "fractions"),
        ("sweep-width", cmd_sweep_width, "widths"),
    ):
        p = sub.add_parser(name, help=f"train cells across a {axis_flag[:-1]} grid")
        p.add_argument("--dataset")
        p.add_argument("--config")
        p.add_argument("--cells", nargs="+", help="arch[:strategy[:lam[:width]]] ...")
        p.add_argument("--width", type=int, default=None, help="default width for cells")
        p.add_argument("--seeds", type=_ints, default=None)
        if axis_flag == "fractions":
            p.add_argument("--fractions", type=_floats, default=None)
        else:
            p.add_argument("--widths", type=_ints, default=None)
        p.add_argument("--extrapolate", action="store_true")
        p.add_argument("--ext-seed", type=int, default=EXTRAPOLATION_SEED)
        p.add_argument("--out", required=True)
        _add_train_flags(p, with_seed=False)
        p.set_defaults(func=handler)

    p = sub.add_parser("extrapolate", help="build an out-of-range evaluation set")
    p.add_argument("--dataset", required=True)
    p.add_argument("--count", type=int, default=None, help="default: test-split size")
    p.add_argument("--seed", type=int, default=EXTRAPOLATION_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extrapolate)

    p = sub.add_parser("lambda-search", help="pick lambda by validation NMAE")
    p.add_argument("--dataset")
    p.add_argument("--config")
    p.add_argument("--arch", choices=ARCHITECTURES, required=True)
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--grid", type=_floats, default=tuple(round(0.1 * k, 1) for k in range(1, 10)))
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--fraction", type=_fraction, default=1.0, help="training fraction in (0, 1]")
    p.add_argument("--seeds", type=_ints, default=None)
    p.add_argument("--out", required=True)
    _add_train_flags(p, with_seed=False)
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
