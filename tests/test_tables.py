"""The CSV tables the program keeps: a dataset, a run's history, a metrics file.

Each is written by one writer and read by one reader, so each round-trips
bit for bit, and each malformed file fails with a ``ValueError`` that names
the file and the 0-based data row.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from backwater.data import ParameterRanges, generate, load, save
from backwater.harness import RunRecord, load_record, save_record
from backwater.metrics import evaluate_set, read_metrics_csv, write_metrics_csv
from backwater.solver import GridSpec

RANGES = ParameterRanges(
    s=(1e-3, 5e-3, 2),
    b=(8.0, 20.0, 2),
    n=(0.015, 0.03, 2),
    zd=(1.5, 3.0, 2),
    Q=(30.0, 120.0, 2),
)


@pytest.fixture(scope="module")
def tiny_ds():
    return generate(RANGES, GridSpec(10.0, 200.0), seed=7)


@pytest.fixture(scope="module")
def record(tiny_ds):
    """A run record with a hand-made history and noisy-oracle test scores."""
    rng = np.random.default_rng(3)
    profiles = tiny_ds.profiles_in("test")
    out = evaluate_set(np.array([p.depths + rng.normal(0.0, 0.05, p.depths.size) for p in profiles]),
                       profiles, ids=tiny_ds.indices("test"), split="test")
    history = [
        {"epoch": e, "train_loss": float(rng.random()), "val_loss": float(rng.random()), "lr": 1e-3 / (e + 1)}
        for e in range(5)
    ]
    summary = {"nmae": out.summary["nmae"], "nnse": out.summary["nnse"]}
    return RunRecord("sp", "dd", 1.0, 8, 1.0, 0, tiny_ds.content_hash(), {}, 0.0,
                     history, out.records, {"test": summary})


@pytest.fixture(scope="module")
def metric_records(record):
    return record.records


def _save_dataset(ds, run_dir):
    run_dir.mkdir()
    save(ds, run_dir / "corpus.csv")
    return run_dir / "corpus.csv"


def _load_dataset(path):
    # the manifest's checksum follows the file, so load reaches the header and rows
    manifest_path = path.with_suffix(".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    manifest["csv_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    return load(path)


def _save_history(record, run_dir):
    save_record(record, run_dir)
    return run_dir / "history.csv"


def _save_metrics(records, run_dir):
    run_dir.mkdir()
    write_metrics_csv(records, run_dir / "metrics.csv")
    return run_dir / "metrics.csv"


#: per table: the fixture written, its writer into a new directory (returning
#: the table's path), its reader, and the value a round trip keeps
TABLES = {
    "dataset": ("tiny_ds", _save_dataset, _load_dataset,
                lambda ds: (ds.content_hash(), ds.split, [(p.regime, p.jump_index) for p in ds.profiles])),
    "history": ("record", _save_history, lambda path: load_record(path.parent), lambda r: r.history),
    "metrics": ("metric_records", _save_metrics, read_metrics_csv, lambda records: records),
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_table_round_trips_and_names_the_bad_row(table, tmp_path, request):
    fixture, write, read, kept = TABLES[table]
    value = request.getfixturevalue(fixture)
    path = write(value, tmp_path / "a")
    back = read(path)
    assert kept(back) == kept(value)
    assert write(back, tmp_path / "b").read_bytes() == path.read_bytes()

    intact = path.read_text().splitlines()
    header, row = intact[0].split(","), intact[2].split(",")
    name = re.escape(str(path))
    for edit, line, message in (
        (header[:-1] + ["zzz"], 0, rf"{name} header column {len(header) - 1} is 'zzz', not '{header[-1]}'"),
        (row[:-1], 2, rf"{name} row 1: {len(row) - 1} fields, not {len(row)}"),
        (row[:-1] + ["x"], 2, rf"{name} row 1: could not convert string to float: 'x'"),
    ):
        lines = list(intact)
        lines[line] = ",".join(edit)
        path.write_text("\r\n".join(lines) + "\r\n")
        with pytest.raises(ValueError, match=message):
            read(path)
