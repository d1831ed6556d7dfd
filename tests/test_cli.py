"""End-to-end tests of the command-line interface."""

import json
import math
from pathlib import Path

import pytest

from backwater.cli import main, parse_cell
from backwater.data import load
from backwater.models import ModelSpec

TINY_CONFIG = {
    "ranges": {
        "s": [1e-3, 5e-3, 3],
        "b": [8.0, 20.0, 2],
        "n": [0.015, 0.03, 2],
        "zd": [1.5, 3.0, 2],
        "Q": [30.0, 120.0, 2],
    },
    "grid": {"dx": 10.0, "length": 300.0},
}


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = root / "gen.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = root / "tiny.csv"
    assert main(["gen-data", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    return out


def test_parse_cell_forms():
    assert parse_cell("sp") == ModelSpec("sp")
    assert parse_cell("vts:en:0.7:16") == ModelSpec("vts", "en", 0.7, 16)
    with pytest.raises(ValueError):
        parse_cell("sp:en:0.7:16:extra")
    with pytest.raises(ValueError):
        parse_cell("cnn")


def test_gen_data_is_deterministic(tmp_path, dataset_csv):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "again.csv"
    main(["gen-data", "--config", str(cfg), "--seed", "5", "--out", str(out)])
    assert out.read_bytes() == dataset_csv.read_bytes()
    a = json.loads(out.with_suffix(".manifest.json").read_text())
    b = json.loads(dataset_csv.with_suffix(".manifest.json").read_text())
    assert a["csv_sha256"] == b["csv_sha256"]


def test_gen_data_needs_a_source(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def train_args(dataset_csv, out_dir, seed="1"):
    return [
        "train",
        "--dataset", str(dataset_csv),
        "--arch", "sp",
        "--strategy", "en",
        "--lambda", "0.7",
        "--width", "8",
        "--seed", seed,
        "--max-epochs", "4",
        "--batch-size", "64",
        "--out", str(out_dir),
    ]


def test_train_twice_identical_outputs(tmp_path, dataset_csv):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(train_args(dataset_csv, a)) == 0
    assert main(train_args(dataset_csv, b)) == 0
    run_a = next(a.iterdir())
    run_b = next(b.iterdir())
    assert run_a.name == run_b.name
    assert (run_a / "metrics.csv").read_bytes() == (run_b / "metrics.csv").read_bytes()
    assert (run_a / "history.csv").read_bytes() == (run_b / "history.csv").read_bytes()
    assert (run_a / "model.json").exists()


def test_evaluate_saved_model(tmp_path, dataset_csv):
    runs = tmp_path / "runs"
    main(train_args(dataset_csv, runs))
    model = next(runs.iterdir()) / "model.json"
    out = tmp_path / "metrics.csv"
    assert main(
        ["evaluate", "--model", str(model), "--dataset", str(dataset_csv), "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "profile_id,split,regime,nmae,nnse"
    ds = load(dataset_csv)
    assert len(lines) - 1 == len(ds.indices("test"))


def test_sweep_size_and_report(tmp_path, dataset_csv):
    out = tmp_path / "sweep"
    assert main(
        [
            "sweep-size",
            "--dataset", str(dataset_csv),
            "--cells", "sp:dd::8", "sp:en:0.7:8",
            "--fractions", "1.0,0.5",
            "--seeds", "0",
            "--max-epochs", "3",
            "--batch-size", "64",
            "--out", str(out),
        ]
    ) == 0
    run_dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(run_dirs) == 4  # 2 cells x 2 fractions x 1 seed
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "arch,strategy,lambda,width,axis,axis_value,seed_mean_nmae,seed_mean_nnse"
    assert len(report) == 5
    assert all(len(line.split(",")) == 8 for line in report)

    regen = tmp_path / "report2.csv"
    assert main(["report", "--runs", str(out), "--out", str(regen)]) == 0
    assert regen.read_bytes() == (out / "report.csv").read_bytes()


def test_report_keeps_cells_of_different_widths_apart(tmp_path, dataset_csv):
    out = tmp_path / "two_widths"
    assert main(
        [
            "sweep-size",
            "--dataset", str(dataset_csv),
            "--cells", "vts:dd::8", "vts:dd::16",
            "--fractions", "0.5",
            "--seeds", "0",
            "--max-epochs", "3",
            "--out", str(out),
        ]
    ) == 0
    assert len([p for p in out.iterdir() if p.is_dir()]) == 2
    header, *rows = (out / "report.csv").read_text().splitlines()
    assert len(rows) == 2
    fields = header.split(",")
    widths = set()
    for row in rows:
        values = row.split(",")
        assert len(values) == len(fields)
        widths.add(values[fields.index("width")])
    assert widths == {"8", "16"}


def test_sweep_width_resolves_widths(tmp_path, dataset_csv):
    out = tmp_path / "widths"
    assert main(
        [
            "sweep-width",
            "--dataset", str(dataset_csv),
            "--cells", "vts:dd",
            "--widths", "4,8",
            "--seeds", "0",
            "--max-epochs", "3",
            "--out", str(out),
        ]
    ) == 0
    widths = set()
    for manifest in out.glob("*/manifest.json"):
        widths.add(json.loads(manifest.read_text())["width"])
    assert widths == {4, 8}


def test_extrapolate_writes_eval_corpus(tmp_path, dataset_csv):
    out = tmp_path / "ext.csv"
    assert main(
        ["extrapolate", "--dataset", str(dataset_csv), "--count", "10", "--seed", "3", "--out", str(out)]
    ) == 0
    ext = load(out)
    assert len(ext.profiles) == 10
    assert ext.indices("test").size == 10
    assert ext.manifest["kind"] == "extrapolation"


def test_lambda_search_cli_grid_of_one(tmp_path, dataset_csv):
    out = tmp_path / "lam"
    assert main(
        [
            "lambda-search",
            "--dataset", str(dataset_csv),
            "--arch", "sp",
            "--strategy", "en",
            "--grid", "1.0",
            "--seeds", "0",
            "--width", "8",
            "--max-epochs", "3",
            "--out", str(out),
        ]
    ) == 0
    assert json.loads((out / "best.json").read_text()) == {"lam": 1.0}
    table = (out / "lambda_table.csv").read_text().splitlines()
    assert table[0] == "lambda,seed_mean_val_nmae,seed_mean_test_nmae"
    assert len(table) == 2


def test_usage_errors_exit_2(tmp_path, dataset_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-size", "--dataset", str(dataset_csv), "--cells", "cnn:dd",
              "--fractions", "1.0", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["train", "--dataset", str(tmp_path / "missing.csv"), "--arch", "sp",
              "--out", str(tmp_path / "y")])
    assert exc.value.code == 2

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--config", str(bad_cfg), "--out", str(tmp_path / "z.csv")])
    assert exc.value.code == 2

    model = tmp_path / "model.json"
    model.write_text(json.dumps({"format_version": 1, "spec": {}}))
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--model", str(model), "--dataset", str(dataset_csv),
              "--out", str(tmp_path / "m.csv")])
    assert exc.value.code == 2

    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes(dataset_csv.read_bytes())
    manifest = json.loads(dataset_csv.with_suffix(".manifest.json").read_text())
    del manifest["regimes"]
    corpus.with_suffix(".manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as exc:
        main(["extrapolate", "--dataset", str(corpus), "--out", str(tmp_path / "ext.csv")])
    assert exc.value.code == 2

    # per-profile manifest entries that would drop or mislabel profiles
    manifest = json.loads(dataset_csv.with_suffix(".manifest.json").read_text())
    for key, row, value in (("split", 0, "training"), ("regimes", 1, "banana"),
                            ("jump_indices", 2, 7.5)):
        entries = list(manifest[key])
        entries[row] = value
        corpus.with_suffix(".manifest.json").write_text(json.dumps({**manifest, key: entries}))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["extrapolate", "--dataset", str(corpus), "--out", str(tmp_path / "ext.csv")])
        assert exc.value.code == 2
        assert f"{key!r} row {row}" in capsys.readouterr().err

    runs = tmp_path / "runs"
    main(train_args(dataset_csv, runs))
    run_manifest = next(runs.iterdir()) / "manifest.json"
    stored = json.loads(run_manifest.read_text())
    for broken in ({k: v for k, v in stored.items() if k != "seed"}, dict(stored, extra=1)):
        run_manifest.write_text(json.dumps(broken))
        with pytest.raises(SystemExit) as exc:
            main(["report", "--runs", str(runs), "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
    run_manifest.write_text(json.dumps(stored))

    # a malformed summary or history row, each named in the message
    summary_path = run_manifest.parent / "summary.json"
    summary = json.loads(summary_path.read_text())
    history_path = run_manifest.parent / "history.csv"
    history = history_path.read_text()
    n_epochs = len(history.splitlines()) - 1
    metrics_path = run_manifest.parent / "metrics.csv"
    metrics = metrics_path.read_text()
    cases = (
        (summary_path, json.dumps({"test": {}}), "summary.json: 'test' 'nmae'"),
        (summary_path, json.dumps({**summary, "test": {**summary["test"], "nmae": {"mean": "0.5"}}}),
         "summary.json: 'test' 'nmae'"),
        (summary_path, json.dumps({**summary, "val": {**summary["val"], "nnse": {"mean": math.nan}}}),
         "summary.json: 'val' 'nnse'"),
        (summary_path, json.dumps([]), "summary.json is not a JSON object"),
        (history_path, history + "7,0.5\n", f"history.csv row {n_epochs + 1}: 2 fields, not 4"),
        (metrics_path, metrics + "3,test\n", f"metrics.csv row {len(metrics.splitlines())}: not enough"),
        (metrics_path, "", "unexpected metrics header in"),
    )
    for path, broken, expected in cases:
        intact = path.read_text()
        path.write_text(broken)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["report", "--runs", str(runs), "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert expected in capsys.readouterr().err
        path.write_text(intact)

    # training settings outside their domain, each named in the message
    for flags, field in (
        (["--batch-size", "0"], "batch_size"),
        (["--batch-size", "-4"], "batch_size"),
        (["--lr", "-0.01"], "initial_lr"),
        (["--lr", "inf"], "initial_lr"),
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(train_args(dataset_csv, tmp_path / "bad_train") + flags)
        assert exc.value.code == 2
        assert field in capsys.readouterr().err

    # a training fraction outside (0, 1], named in the message
    for argv in (
        train_args(dataset_csv, tmp_path / "bad_fraction") + ["--fraction", "1.5"],
        ["lambda-search", "--dataset", str(dataset_csv), "--arch", "sp", "--strategy", "en",
         "--fraction", "3", "--out", str(tmp_path / "bad_lam")],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--fraction" in capsys.readouterr().err

    # malformed config files, each named in the message
    without_s = {k: v for k, v in TINY_CONFIG["ranges"].items() if k != "s"}
    plan = {"dataset": str(dataset_csv), "cells": [{"arch": "sp"}], "train": {"max_epochs": 1}}
    cases = (
        ("gen-data", {"grid": TINY_CONFIG["grid"]}, "'ranges'"),
        ("gen-data", dict(TINY_CONFIG, ranges=without_s), "'s'"),
        ("gen-data", dict(TINY_CONFIG, grid={"dx": 10.0, "len": 300.0}), "'len'"),
        ("sweep-size", {"dataset": str(dataset_csv), "cells": [{"arch": "sp", "strat": "en"}]},
         "'strat'"),
        # values of the wrong JSON type
        ("sweep-size", dict(plan, train={"batch_size": "16"}), "'batch_size'"),
        ("gen-data", dict(TINY_CONFIG, grid={"dx": "10", "length": 300.0}), "'dx'"),
        ("gen-data", dict(TINY_CONFIG, ranges=dict(TINY_CONFIG["ranges"], b=[8.0, 20.0, 2.5])),
         "'b'"),
        ("gen-data", dict(TINY_CONFIG, ranges=dict(TINY_CONFIG["ranges"], n=["0.015", 0.03, 2])),
         "'n'"),
        ("sweep-size", dict(plan, fractions=["0.5"]), "'fractions'"),
        ("sweep-size", dict(plan, cells=[{"arch": "sp", "strategy": "en", "lam": "0.5"}]), "'lam'"),
        # a floor rate that is not finite or lies outside [0, initial_lr]
        *(("sweep-size", dict(plan, train={"min_lr": v}), "min_lr")
          for v in (1.0, -1.0, math.nan, math.inf)),
    )
    for command, cfg, name in cases:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--out", str(tmp_path / "cfg_out")])
        assert exc.value.code == 2
        assert name in capsys.readouterr().err


def test_report_with_no_records_errors(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["report", "--runs", str(tmp_path / "empty"), "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
