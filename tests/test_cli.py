"""End-to-end tests of the command-line interface."""

import json
import math
import re
import shlex
import shutil
from dataclasses import fields, replace
from pathlib import Path

import pytest

from backwater import cli
from backwater.cli import PlanConfig, build_parser, main, parse_cell
from backwater.data import load
from backwater.harness import _dir_name, discover_records, record_dir_name
from backwater.models import ARCHITECTURES, ModelSpec
from backwater.network import init

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


def test_summary_json_and_evaluate_stdout_share_one_split_object(tmp_path, dataset_csv, capsys):
    # the format both outputs keep: per split nmae{...}, nnse{...}, excluded, in that
    # order, then an int model's floor and cap counts
    stats = ["mean", "p10", "p25", "p50", "p75", "p90", "skewness"]
    for arch in ARCHITECTURES:
        runs = tmp_path / arch
        argv = train_args(dataset_csv, runs)
        argv[argv.index("--arch") + 1] = arch
        assert main(argv) == 0
        run_dir = next(runs.iterdir())
        summary = json.loads((run_dir / "summary.json").read_text())
        counts = ["excluded", "clamped", "capped"] if arch == "int" else ["excluded"]
        for split in ("val", "test"):
            assert list(summary[split]) == ["nmae", "nnse", *counts]
            assert list(summary[split]["nmae"]) == stats and list(summary[split]["nnse"]) == stats
            assert all(type(summary[split][key]) is int for key in counts)
        capsys.readouterr()
        assert main(["evaluate", "--model", str(run_dir / "model.json"), "--dataset", str(dataset_csv),
                     "--out", str(tmp_path / "metrics.csv")]) == 0
        assert capsys.readouterr().out == json.dumps(summary["test"]) + "\n"


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
    run_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert run_dirs == [  # 2 cells x 2 fractions x 1 seed
        "sp-dd-lam1-w8-fraction0.5-seed0", "sp-dd-lam1-w8-fraction1-seed0",
        "sp-en-lam0.7-w8-fraction0.5-seed0", "sp-en-lam0.7-w8-fraction1-seed0",
    ]
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "arch,strategy,lambda,width,fraction,split,seed_mean_nmae,seed_mean_nnse"
    assert len(report) == 5
    assert all(len(line.split(",")) == 8 for line in report)
    keys = [line.split(",")[:6] for line in report[1:]]
    assert keys == [
        ["sp", "dd", "1.0", "8", "0.5", "test"], ["sp", "dd", "1.0", "8", "1.0", "test"],
        ["sp", "en", "0.7", "8", "0.5", "test"], ["sp", "en", "0.7", "8", "1.0", "test"],
    ]

    regen = tmp_path / "report2.csv"
    assert main(["report", "--runs", str(out), "--out", str(regen)]) == 0
    assert regen.read_bytes() == (out / "report.csv").read_bytes()


def test_train_without_fraction_is_fraction_one(tmp_path, dataset_csv):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(train_args(dataset_csv, a)) == 0
    assert main(train_args(dataset_csv, b) + ["--fraction", "1.0"]) == 0
    (run_a,), (run_b,) = list(a.iterdir()), list(b.iterdir())
    assert run_a.name == run_b.name == "sp-en-lam0.7-w8-fraction1-seed1"
    for name in ("metrics.csv", "history.csv"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes()


def test_sweep_width_run_equals_sweep_size_run(tmp_path, dataset_csv):
    common = ["--dataset", str(dataset_csv), "--seeds", "2", "--max-epochs", "3", "--batch-size", "64",
              "--extrapolate"]
    assert main(["sweep-width", *common, "--cells", "int:en:0.5:30", "--widths", "8",
                 "--out", str(tmp_path / "w")]) == 0
    assert main(["sweep-size", *common, "--cells", "int:en:0.5:8", "--fractions", "1.0",
                 "--out", str(tmp_path / "f")]) == 0
    (by_width,) = discover_records(tmp_path / "w")
    (by_size,) = discover_records(tmp_path / "f")
    assert record_dir_name(by_width) == record_dir_name(by_size) == "int-en-lam0.5-w8-fraction1-seed2"
    assert replace(by_width, wall_time=0.0) == replace(by_size, wall_time=0.0)
    assert {(p.name, p.read_bytes()) for p in (tmp_path / "w").glob("*/*.csv")} == {
        (p.name, p.read_bytes()) for p in (tmp_path / "f").glob("*/*.csv")
    }


def test_near_equal_lambdas_get_their_own_run_directories(tmp_path, dataset_csv):
    out = tmp_path / "near"
    assert main(["sweep-size", "--dataset", str(dataset_csv), "--cells", "sp:en:0.3:8", "sp:en:0.3000001:8",
                 "--fractions", "1.0", "--seeds", "0", "--max-epochs", "1", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
        "sp-en-lam0.3-w8-fraction1-seed0", "sp-en-lam0.3000001-w8-fraction1-seed0",
    ]
    assert len((out / "report.csv").read_text().splitlines()) == 3


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
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--config", str(bad_cfg), "--out", str(tmp_path / "z.csv")])
    assert exc.value.code == 2
    assert "bad.json is not valid JSON" in capsys.readouterr().err

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
    for broken, expected in (
        ({k: v for k, v in stored.items() if k != "seed"}, "lacks 'seed'"),
        (dict(stored, extra=1), "unexpected 'extra'"),
        (dict(stored, fraction="0.5"), "'fraction' must be a number, not '0.5'"),
        (dict(stored, width=8.0), "'width' must be an integer, not 8.0"),
        (dict(stored, seed=True), "'seed' must be an integer, not True"),
        (dict(stored, config=[]), "'config' must be an object, not []"),
    ):
        run_manifest.write_text(json.dumps(broken))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["report", "--runs", str(runs), "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert expected in capsys.readouterr().err
    # a run directory written before runs had a fraction field
    old_format = {k: v for k, v in stored.items() if k != "fraction"}
    old_format.update(axis="none", axis_value=None, config=dict(stored["config"], fraction=1.0))
    run_manifest.write_text(json.dumps(old_format))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["report", "--runs", str(runs), "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    assert "lacks 'fraction'" in capsys.readouterr().err
    run_manifest.write_text(json.dumps(stored))

    # a malformed run or dataset file, each named in the message
    summary_path = run_manifest.parent / "summary.json"
    summary = json.loads(summary_path.read_text())
    history_path = run_manifest.parent / "history.csv"
    history = history_path.read_text()
    n_epochs = len(history.splitlines()) - 1
    metrics_path = run_manifest.parent / "metrics.csv"
    metrics = metrics_path.read_text()
    n_scores = len(metrics.splitlines()) - 1
    corpus_manifest = corpus.with_suffix(".manifest.json")
    corpus_manifest.write_text(json.dumps(manifest))
    bool_bound = {**manifest["ranges"], "n": [0.015, True, 2]}
    report = ["report", "--runs", str(runs), "--out", str(tmp_path / "r.csv")]
    extrapolate = ["extrapolate", "--dataset", str(corpus), "--out", str(tmp_path / "ext.csv")]
    sweep = ["sweep-size", "--dataset", str(corpus), "--cells", "vts:dd", "--fractions", "1.0",
             "--seeds", "0", "--extrapolate", "--max-epochs", "1", "--out", str(tmp_path / "sweep")]
    cases = (
        (report, summary_path, json.dumps({"test": {}}), "summary.json: 'test' 'nmae'"),
        (report, summary_path, json.dumps({**summary, "test": {**summary["test"], "nmae": {"mean": "0.5"}}}),
         "summary.json: 'test' 'nmae'"),
        (report, summary_path, json.dumps({**summary, "val": {**summary["val"], "nnse": {"mean": math.nan}}}),
         "summary.json: 'val' 'nnse'"),
        (report, summary_path, json.dumps([]), "summary.json is not a JSON object"),
        (report, summary_path, json.dumps(summary)[:100], "summary.json is not valid JSON"),
        (report, run_manifest, json.dumps(stored)[:100], "manifest.json is not valid JSON"),
        (report, history_path, history + "7,0.5\n", f"history.csv row {n_epochs}: 2 fields, not 4"),
        (report, metrics_path, metrics + "3,test\n", f"metrics.csv row {n_scores}: 2 fields, not 5"),
        (report, metrics_path, metrics + "3,testing,mixed,0.1,0.9\n",
         f"metrics.csv row {n_scores}: split 'testing' is not one of"),
        (report, metrics_path, metrics + "3,test,banana,0.1,0.9\n",
         f"metrics.csv row {n_scores}: regime 'banana' is not 'subcritical' or 'mixed'"),
        (report, metrics_path, "", "metrics.csv header column 0 is None, not 'profile_id'"),
        (extrapolate, corpus_manifest, json.dumps(manifest)[:100], "corpus.manifest.json is not valid JSON"),
        (extrapolate, corpus_manifest, json.dumps({**manifest, "ranges": bool_bound}),
         "'n' must be a list [number, number, integer], not [0.015, True, 2]"),
        # an extrapolation corpus keeps only 'base_ranges', so no new set can be drawn from it
        *((argv, corpus_manifest, json.dumps({k: v for k, v in manifest.items() if k != "ranges"}),
           "'ranges' must be a JSON object") for argv in (extrapolate, sweep)),
        (extrapolate, corpus_manifest, json.dumps({**manifest, "dx": 1e-300, "length": 1e300}),
         "length / dx = 1e+300 / 1e-300 is not finite"),
        (extrapolate, corpus_manifest, json.dumps({**manifest, "length": 10**400}), "length must be finite"),
    )
    for argv, path, broken, expected in cases:
        intact = path.read_text()
        path.write_text(broken)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert expected in capsys.readouterr().err
        path.write_text(intact)

    # runs that would share one run directory: nothing is trained or written
    dup = tmp_path / "dup"
    for argv, expected in (
        (["sweep-size", "--cells", "vts:dd:0.5", "vts:dd:0.9", "--fractions", "0.5", "--seeds", "0"],
         "vts-dd-lam1-w40-fraction0.5-seed0 twice"),
        (["sweep-size", "--cells", "vts:dd", "--fractions", "0.5", "--seeds", "0,0"],
         "vts-dd-lam1-w40-fraction0.5-seed0 twice"),
        (["sweep-size", "--cells", "vts:dd", "--fractions", "0.5,0.5", "--seeds", "0"],
         "vts-dd-lam1-w40-fraction0.5-seed0 twice"),
        (["sweep-width", "--cells", "vts:dd::8", "vts:dd::16", "--widths", "4", "--seeds", "0"],
         "vts-dd-lam1-w4-fraction1-seed0 twice"),
        (["lambda-search", "--arch", "vts", "--strategy", "dd", "--seeds", "0"], "no lambda to search"),
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--dataset", str(dataset_csv), "--max-epochs", "1", "--out", str(dup)])
        assert exc.value.code == 2
        assert expected in capsys.readouterr().err
        assert not dup.exists()

    # a checkpoint whose network is not the one its spec and grid call for
    int_args = train_args(dataset_csv, tmp_path / "int_runs")
    int_args[int_args.index("sp")] = "int"
    main(int_args)
    checkpoint = next((tmp_path / "int_runs").iterdir()) / "model.json"
    stored = json.loads(checkpoint.read_text())
    for broken, expected in (
        (dict(stored, spec=dict(stored["spec"], width=30)), "[6, 8, 8, 8, 1]"),
        (dict(stored, network=init([6, 8, 8, 8, 2], 0).to_dict()), "[6, 8, 8, 8, 2]"),
    ):
        checkpoint.write_text(json.dumps(broken))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--model", str(checkpoint), "--dataset", str(dataset_csv),
                  "--out", str(tmp_path / "m.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"checkpoint network has layer sizes {expected}" in err
        assert "needs [6, " in err
    # a long malformed value is shown by its first few items: 91 string biases of a width-30 net
    wide = init([6, 30, 30, 30, 1], 0).to_dict()
    wide["biases"] = [[str(v + 0.1234567890123) for v in b] for b in wide["biases"]]
    checkpoint.write_text(json.dumps(dict(stored, network=wide)))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--model", str(checkpoint), "--dataset", str(dataset_csv),
              "--out", str(tmp_path / "m.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "network 'biases' must be a list of lists of numbers, not [['0.1234567890123'," in err
    assert len(err) < 800, err
    # a NaN weight is refused, not scored into NaN metrics
    nan_weight = json.loads(json.dumps(stored))
    nan_weight["network"]["weights"][0][0] = math.nan
    checkpoint.write_text(json.dumps(nan_weight))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--model", str(checkpoint), "--dataset", str(dataset_csv),
              "--out", str(tmp_path / "m.csv")])
    assert exc.value.code == 2
    assert "network weights[0] holds a non-finite value" in capsys.readouterr().err
    checkpoint.write_text(json.dumps(stored))

    # a grid value that is not a number
    corpus.with_suffix(".manifest.json").write_text(json.dumps(dict(manifest, dx="10")))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--model", str(checkpoint), "--dataset", str(corpus), "--out", str(tmp_path / "m.csv")])
    assert exc.value.code == 2
    assert "grid dx must be a real number, not '10'" in capsys.readouterr().err

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
        # a bool count, and integers beyond float range
        ("gen-data", dict(TINY_CONFIG, ranges=dict(TINY_CONFIG["ranges"], zd=[1.5, 3.0, True])),
         "'zd' must be a list [number, number, integer], not [1.5, 3.0, True]"),
        ("gen-data", dict(TINY_CONFIG, ranges=dict(TINY_CONFIG["ranges"], Q=[30.0, 10**400, 2])),
         "'Q' must be a list [number, number, integer]"),
        ("gen-data", dict(TINY_CONFIG, grid={"dx": 10.0, "length": 10**400}), "grid 'length' must be a number"),
        # a grid of more stations than a float counts
        ("gen-data", dict(TINY_CONFIG, grid={"dx": 1e-300, "length": 1e300}), "length / dx"),
        ("sweep-size", dict(plan, fractions=["0.5"]), "'fractions'"),
        # type errors name JSON types
        ("sweep-size", dict(plan, cells={"arch": "sp"}), "'cells' must be a list of objects, not {'arch': 'sp'}"),
        ("sweep-size", dict(plan, train=[1]), "'train' must be an object, not [1]"),
        ("sweep-size", dict(plan, dataset=7), "'dataset' must be a string or null, not 7"),
        ("sweep-size", dict(plan, cells=[{"arch": "sp", "strategy": "en", "lam": "0.5"}]), "'lam'"),
        # the plateau's factor and floor are constants, not keys of 'train'
        *(("sweep-size", dict(plan, train={"min_lr": v}), "min_lr")
          for v in (1.0, -1.0, math.nan, math.inf)),
        ("sweep-size", dict(plan, train={"lr_factor": 0.5}), "'lr_factor'"),
        # a mistyped or unknown key, named with its file
        ("sweep-size", dict(plan, fraction=[0.5]), "cfg.json has unexpected 'fraction'"),
        ("gen-data", dict(TINY_CONFIG, seed=5), "cfg.json has unexpected 'seed'"),
        # plan keys a command does not read
        ("train --arch sp", {"dataset": str(dataset_csv), "fractions": [0.5], "seeds": [4]},
         "cfg.json sets 'fractions', 'seeds', which train does not read"),
        *(("train --arch sp", {"dataset": str(dataset_csv), key: value}, f"cfg.json sets {key!r}, which train does not read")
          for key, value in (("cells", [{"arch": "sp"}]), ("widths", [4]), ("extrapolation", True))),
        ("lambda-search --arch sp --strategy en", plan, "cfg.json sets 'cells', which lambda-search does not read"),
        ("lambda-search --arch sp --strategy en", {"dataset": str(dataset_csv), "seeds": [0], "fractions": [0.5]},
         "cfg.json sets 'fractions', which lambda-search does not read"),
        # each sweep reads every plan key but the other sweep's axis
        ("sweep-size", dict(plan, widths=[4]), "cfg.json sets 'widths', which sweep-size does not read"),
        ("sweep-width", dict(plan, fractions=[0.05]), "cfg.json sets 'fractions', which sweep-width does not read"),
        # a run's seed is --seed or an entry of seeds, so train.seed would be ignored
        *((command, dict(cfg, train={"max_epochs": 1, "seed": 12345}), "cfg.json 'train' sets 'seed'")
          for command, cfg in (
            ("sweep-size", dict(plan, seeds=[0], fractions=[1.0])),
            ("sweep-width", dict(plan, seeds=[0], widths=[4])),
            ("train --arch sp", {"dataset": str(dataset_csv)}),
            ("lambda-search --arch sp --strategy en --grid 0.5", {"dataset": str(dataset_csv), "seeds": [0]}),
        )),
        # sweep-width has no --width: each of its widths replaces the cells' own
        ("sweep-width --width 8", plan, "unrecognized arguments: --width 8"),
    )
    for command, cfg, name in cases:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--config", str(path), "--out", str(tmp_path / "cfg_out")])
        assert exc.value.code == 2
        assert name in capsys.readouterr().err


def test_report_with_no_records_errors(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["report", "--runs", str(tmp_path / "empty"), "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2


def test_report_refuses_a_run_held_by_two_directories(tmp_path, dataset_csv, capsys):
    runs = tmp_path / "runs"
    assert main(train_args(dataset_csv, runs / "first")) == 0
    shutil.copytree(runs / "first", runs / "again")  # the same (cell, fraction, seed) saved twice
    (name,) = [p.name for p in (runs / "first").iterdir()]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["report", "--runs", str(runs), "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(runs / "first" / name) in err and str(runs / "again" / name) in err
    assert not (tmp_path / "r.csv").exists()


def readme_commands() -> list[str]:
    """The ``backwater`` lines of README's command-line block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("backwater ")]


def test_readme_command_block_parses():
    commands = readme_commands()
    parser = build_parser()
    assert [shlex.split(c)[1] for c in commands] == [
        "gen-data", "train", "evaluate", "sweep-size", "sweep-width", "extrapolate", "lambda-search", "report",
    ]
    for command in commands:
        args = parser.parse_args(shlex.split(command)[1:])
        if args.command == "evaluate":
            run_dir = Path(args.model).parent.name
            match = re.fullmatch(r"(\w+)-(\w+)-lam([\d.]+)-w(\d+)-fraction([\d.]+)-seed(\d+)", run_dir)
            assert match, run_dir
            arch, strategy, lam, width, fraction, seed = match.groups()
            assert _dir_name(arch, strategy, float(lam), int(width), float(fraction), int(seed)) == run_dir


def test_documented_plan_configs_read(tmp_path, monkeypatch):
    # each documented plan runs under the command it is written for, and the
    # docstring's plans together name every setting
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = re.findall(r"``(sweep-\w+)`` plan[^:]*::\n\n(.*?)\n\n", cli.__doc__, re.DOTALL)
    assert [command for command, _ in documented] == ["sweep-size", "sweep-width"]
    in_readme = readme.split("`--config plan.json`:\n\n```json\n", 1)[1].split("\n```", 1)[0]
    named = set().union(*(json.loads(text) for _, text in documented))
    assert named == {f.name for f in fields(PlanConfig)}
    swept = []
    monkeypatch.setattr(cli, "_run_sweep", lambda args, cfg, cells, fractions=(1.0,): swept.append(cells))
    dataset = tmp_path / "desk.csv"
    dataset.touch()  # a plan names its dataset; the sweep itself is not run
    for k, (command, text) in enumerate(documented + [("sweep-size", in_readme)]):
        path = tmp_path / f"plan{k}.json"
        path.write_text(json.dumps(dict(json.loads(text), dataset=str(dataset))))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "runs")]) == 0
        assert len(swept) == k + 1 and swept[-1]
