"""Tests for experiment plans, run records, extrapolation sets, and reports."""

import math
from pathlib import Path

import numpy as np
import pytest

from dataclasses import replace

from backwater.data import DESK_GRID, ParameterRanges, desk_ranges, generate
from backwater.harness import (
    ExperimentPlan,
    _dir_name,
    _draw_scenario,
    aggregate,
    discover_records,
    execute_plan,
    extrapolation_dataset,
    lambda_search,
    load_record,
    make_extrapolation_set,
    record_dir_name,
    replay,
    run_one,
    save_record,
    write_report,
)
from backwater.hydraulics import ConvergenceError, InsufficientEnergyError
from backwater.models import ModelSpec
from backwater.network import TrainConfig
from backwater.solver import GridSpec, solve_profile

RANGES = ParameterRanges(
    s=(1e-3, 5e-3, 3),
    b=(8.0, 20.0, 2),
    n=(0.015, 0.03, 2),
    zd=(1.5, 3.0, 2),
    Q=(30.0, 120.0, 2),
)
GRID = GridSpec(dx=10.0, length=300.0)
#: both regimes, jumps, and a few scenarios the march rejects
WIDE_RANGES = ParameterRanges(
    s=(5e-4, 2e-2, 5), b=(5.0, 50.0, 5), n=(0.01, 0.05, 5), zd=(1.0, 5.0, 2), Q=(100.0, 300.0, 2)
)
FAST = TrainConfig(max_epochs=4, batch_size=64)
#: ``run_one(ds, ModelSpec("sp", "en", 0.5, 8), 1, FAST, 0.5, extrapolation_dataset(ds))``
#: saved when ``TrainConfig`` still held the plateau's ``lr_factor`` and ``min_lr``
OLD_RUN = Path(__file__).parent / "data" / "sp-en-lam0.5-w8-fraction0.5-seed1"


@pytest.fixture(scope="module")
def ds():
    return generate(RANGES, GRID, seed=5)


# ---------------------------------------------------------------- #
#  Plans
# ---------------------------------------------------------------- #


def test_plan_run_arithmetic():
    plan = ExperimentPlan(
        cells=(ModelSpec("sp"), ModelSpec("sp", "en", 0.7)),
        seeds=(0, 1, 2),
        fractions=(1.0, 0.5, 0.25, 0.1, 0.05),
    )
    runs = list(plan.runs())
    assert len(runs) == 2 * 5 * 3
    assert runs[0] == (ModelSpec("sp"), 1.0, 0)
    assert runs[-1] == (ModelSpec("sp", "en", 0.7), 0.05, 2)
    # without fractions a plan trains on the whole training split
    (run,) = ExperimentPlan(cells=(ModelSpec("sp"),), seeds=(4,)).runs()
    assert run == (ModelSpec("sp"), 1.0, 4)


def test_plan_validation():
    cell = ModelSpec("sp")
    with pytest.raises(ValueError):
        ExperimentPlan(cells=())
    with pytest.raises(ValueError):
        ExperimentPlan(cells=(cell,), seeds=())
    with pytest.raises(ValueError, match="fractions"):
        ExperimentPlan(cells=(cell,), fractions=(0.0,))
    with pytest.raises(ValueError, match="fractions"):
        ExperimentPlan(cells=(cell,), fractions=(1.5,))
    with pytest.raises(ValueError, match="fraction"):
        ExperimentPlan(cells=(cell,), fractions=())
    with pytest.raises(ValueError):
        ModelSpec("sp", width=1)  # what sweep-width puts in a cell is checked there
    with pytest.raises(ValueError):
        ModelSpec("sp", "vol")  # vts-only strategy
    # runs that would share one run directory, each named in the message
    widened = tuple(replace(c, width=4) for c in (ModelSpec("vts", width=8), ModelSpec("vts", width=16)))
    for plan, name in (
        (dict(cells=(cell,), seeds=(0, 0)), "sp-dd-lam1-w30-fraction1-seed0"),
        (dict(cells=(cell,), seeds=(0,), fractions=(0.5, 0.5)), "sp-dd-lam1-w30-fraction0.5-seed0"),
        (dict(cells=(cell, ModelSpec("sp", width=30)), seeds=(1,)), "sp-dd-lam1-w30-fraction1-seed1"),
        (dict(cells=(ModelSpec("vts", "dd", 0.5), ModelSpec("vts", "dd", 0.9)), seeds=(0,)),
         "vts-dd-lam1-w40-fraction1-seed0"),
        (dict(cells=widened, seeds=(0,)), "vts-dd-lam1-w4-fraction1-seed0"),
    ):
        with pytest.raises(ValueError, match=f"plan runs {name} twice"):
            ExperimentPlan(**plan)
    # lambdas or fractions that print alike at six digits are distinct runs
    for plan in (
        ExperimentPlan(cells=(ModelSpec("sp", "en", 0.3), ModelSpec("sp", "en", 0.3000001)), seeds=(0,)),
        ExperimentPlan(cells=(cell,), seeds=(0,), fractions=(0.1, 0.1000001)),
    ):
        names = [_dir_name(c.arch, c.strategy, c.lam, c.neurons, f, s) for c, f, s in plan.runs()]
        assert len(set(names)) == 2, names


def test_dir_names_are_shortest_round_trip_decimals():
    for value, text in ((1.0, "1"), (1, "1"), (0.05, "0.05"), (0.3, "0.3"), (0.123456, "0.123456"), (0.0, "0"),
                        (0.3000001, "0.3000001"), (0.1234567, "0.1234567"), (1e-5, "0.00001")):
        assert _dir_name("sp", "en", value, 8, value, 2) == f"sp-en-lam{text}-w8-fraction{text}-seed2"
        assert float(text) == value


# ---------------------------------------------------------------- #
#  Extrapolation sets
# ---------------------------------------------------------------- #


def test_extrapolation_set_construction(ds):
    profiles, rejected = make_extrapolation_set(RANGES, GRID, count=20, seed=11)
    assert len(profiles) == 20
    assert rejected == []
    for prof in profiles:
        scen = prof.scenario
        values = {"s": scen.s, "b": scen.b, "n": scen.n, "zd": scen.z_d, "Q": scen.Q}
        outside = 0
        for name, v in values.items():
            lo, hi, _ = getattr(RANGES, name)
            assert 0.9 * lo <= v <= 1.1 * hi  # never more than 10% out
            outside += not lo <= v <= hi
        assert outside >= 1


def test_extrapolation_set_deterministic():
    a, _ = make_extrapolation_set(RANGES, GRID, count=5, seed=3)
    b, _ = make_extrapolation_set(RANGES, GRID, count=5, seed=3)
    for pa, pb in zip(a, b):
        assert pa.scenario == pb.scenario
        np.testing.assert_array_equal(pa.depths, pb.depths)


def test_extrapolation_set_rejection_gate():
    # shallow near-critical box (h_n barely above h_c): the subcritical march
    # overshoots the critical energy for roughly half the draws
    bad = ParameterRanges(
        s=(5e-3, 5.5e-3, 2),
        b=(9.5, 10.5, 2),
        n=(0.019, 0.021, 2),
        zd=(1.0, 1.1, 2),
        Q=(9.5, 10.5, 2),
    )
    with pytest.raises(ValueError, match="rejected"):
        make_extrapolation_set(bad, GridSpec(10.0, 600.0), count=40, seed=0)


def draw_one_solve_one(ranges, grid, count, seed):
    """Reference extrapolation set: draw a scenario, solve it, repeat."""
    rng = np.random.default_rng(seed)
    max_attempts = max(40, math.ceil(count / 0.75) + 10)
    profiles, rejected = [], []
    attempts = 0
    while len(profiles) < count:
        if attempts >= max_attempts:
            raise ValueError(
                f"extrapolation sampling rejected too often "
                f"({attempts - len(profiles)}/{attempts} draws failed, >25%)"
            )
        scen = _draw_scenario(rng, ranges)
        attempts += 1
        try:
            profiles.append(solve_profile(scen, grid))
        except (InsufficientEnergyError, ConvergenceError) as exc:
            params = (scen.s, scen.b, scen.n, scen.z_d, scen.Q)
            rejected.append({**dict(zip(("s", "b", "n", "zd", "Q"), params)), "reason": str(exc)})
    if (attempts - count) > 0.25 * attempts:
        raise ValueError(
            f"extrapolation sampling rejected too often "
            f"({attempts - count}/{attempts} draws failed, >25%)"
        )
    return profiles, rejected


@pytest.mark.parametrize("ranges,seed", [(desk_ranges(), 7919), (WIDE_RANGES, 11)], ids=["desk", "wide"])
def test_extrapolation_set_matches_draw_one_solve_one(ranges, seed):
    batched, rejected = make_extrapolation_set(ranges, DESK_GRID, count=75, seed=seed)
    reference, want_rejected = draw_one_solve_one(ranges, DESK_GRID, count=75, seed=seed)
    assert len(batched) == len(reference) == 75
    assert rejected == want_rejected
    for got, want in zip(batched, reference):
        assert got.scenario == want.scenario
        assert np.array_equal(got.depths, want.depths)
        assert (got.regime, got.jump_index) == (want.regime, want.jump_index)


def test_extrapolation_manifest_records_rejected_draws():
    # the wide box at the shared seed: 74 draws, two of them rejected
    ds = generate(WIDE_RANGES, DESK_GRID, seed=0)
    ext = extrapolation_dataset(ds)
    reference, rejected = draw_one_solve_one(WIDE_RANGES, DESK_GRID, count=72, seed=7919)
    assert len(ext.profiles) == len(ds.indices("test")) == 72
    assert [p.scenario for p in ext.profiles] == [p.scenario for p in reference]
    assert len(rejected) == 2
    assert ext.manifest["rejected"] == rejected
    assert ext.manifest["counts"] == {"grid": 74, "retained": 72, "train": 0, "val": 0, "test": 72}


@pytest.mark.parametrize(
    "s_range,seed,message",
    [
        # successes run out before the attempt budget does
        ((0.015, 0.0153, 2), 0, r"\(38/50 draws failed"),
        # enough successes, but more than a quarter of the draws failed
        ((0.013, 0.01326, 2), 2, r"\(12/42 draws failed"),
    ],
    ids=["exhausted", "over_quarter"],
)
def test_extrapolation_rejection_errors_match_draw_one_solve_one(s_range, seed, message):
    # near-critical corner: h_n just above h_c, so many subcritical marches
    # step across the critical energy
    corner = ParameterRanges(
        s=s_range, b=(16.0, 50.0, 2), n=(0.039, 0.041, 2), zd=(1.0, 5.0, 2), Q=(95.0, 105.0, 2)
    )
    with pytest.raises(ValueError, match=message) as want:
        draw_one_solve_one(corner, DESK_GRID, count=30, seed=seed)
    with pytest.raises(ValueError, match=message) as got:
        make_extrapolation_set(corner, DESK_GRID, count=30, seed=seed)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------- #
#  Runs and replay
# ---------------------------------------------------------------- #


def test_run_one_record_shape(ds):
    record = run_one(ds, ModelSpec("sp", width=8), seed=0, config=FAST)
    assert record.arch == "sp" and record.width == 8
    assert record.fraction == 1.0
    assert record.dataset_checksum == ds.content_hash()
    assert record.wall_time > 0.0
    assert len(record.history) == 4
    assert {r.split for r in record.records} == {"val", "test"}
    assert set(record.summaries) == {"val", "test", "diagnostics"}
    assert "fraction" not in record.config
    assert record_dir_name(record) == "sp-dd-lam1-w8-fraction1-seed0"


def test_run_one_fraction_axis(ds):
    record = run_one(ds, ModelSpec("sp", width=8), seed=0, config=FAST, fraction=0.5)
    assert record.fraction == 0.5
    assert "fraction" not in record.config
    assert record_dir_name(record) == "sp-dd-lam1-w8-fraction0.5-seed0"
    # fewer training profiles, as many val and test scores
    full = run_one(ds, ModelSpec("sp", width=8), seed=0, config=FAST)
    assert [r.split for r in record.records] == [r.split for r in full.records]
    assert record.history != full.history


def test_run_one_int_reports_station_curve(ds):
    record = run_one(ds, ModelSpec("int", width=8), seed=0, config=FAST)
    curve = record.summaries["station_mae"]
    assert len(curve) == GRID.n_points
    assert curve[0] == 0.0  # imposed weir boundary is exact


def test_run_one_predicts_each_split_once(ds, monkeypatch):
    import backwater.metrics
    from backwater.models import predict

    calls = []

    def counting_predict(model, scenarios, *args, **kwargs):
        calls.append(len(scenarios))
        return predict(model, scenarios, *args, **kwargs)

    # scoring predicts through metrics.evaluate_set only
    monkeypatch.setattr(backwater.metrics, "predict", counting_predict)
    ext = extrapolation_dataset(ds, count=5, seed=11)
    sink = []
    record = run_one(ds, ModelSpec("int", width=8), seed=0, config=FAST, ext=ext, model_sink=sink)
    assert calls == [len(ds.indices("val")), len(ds.indices("test")), len(ext.profiles)]
    assert set(record.summaries) == {"val", "test", "extrapolation", "station_mae", "diagnostics"}
    # each split records the int march's floor and cap hits
    for split in ("val", "test", "extrapolation"):
        profiles = ext.profiles if split == "extrapolation" else ds.profiles_in(split)
        counters = {}
        predict(sink[0], [p.scenario for p in profiles], counters=counters)
        assert record.summaries[split]["clamped"] == counters.get("clamped", 0)
        assert record.summaries[split]["capped"] == counters.get("capped", 0)

    calls.clear()
    record = run_one(ds, ModelSpec("sp", width=8), seed=0, config=FAST)
    assert calls == [len(ds.indices("val")), len(ds.indices("test"))]
    assert "clamped" not in record.summaries["test"]


def test_run_one_records_the_extrapolation_set_it_is_given(ds):
    ext = extrapolation_dataset(ds, count=7, seed=23)
    record = run_one(ds, ModelSpec("sp", width=8), seed=0, config=FAST, ext=ext)
    assert record.config["ext_seed"] == 23
    assert record.config["ext_count"] == 7
    assert sum(r.split == "extrapolation" for r in record.records) == 7
    plain = run_one(ds, ModelSpec("sp", width=8), seed=0, config=FAST)
    assert "ext_seed" not in plain.config and "ext_count" not in plain.config


def test_val_and_test_profile_ids_are_the_datasets_at_every_fraction(ds):
    # subsampling drops training profiles only, so scores keep the ids of the
    # dataset the record names by checksum
    records = [run_one(ds, ModelSpec("sp", width=8), seed=1, config=FAST, fraction=f) for f in (0.5, 1.0)]
    for split in ("val", "test"):
        ids = [[r.profile_id for r in record.records if r.split == split] for record in records]
        assert ids[0] == ids[1] == ds.indices(split).tolist()


def test_execute_plan_stacks_runs_and_keeps_plan_order(ds, tmp_path, monkeypatch):
    import backwater.harness
    import backwater.models

    # the sp cells share a stack that the int cell interleaves
    cells = (ModelSpec("sp", width=8), ModelSpec("int", width=8), ModelSpec("sp", "en", 0.5, 8))
    plan = ExperimentPlan(cells=cells, seeds=(0, 1), fractions=(0.5,), extrapolation=True)
    stacks, saved = [], []
    real_stack, real_save = backwater.models.train_stack, backwater.harness.save_record

    def spy_stack(members):
        stacks.append([(spec, config.seed) for spec, _, config in members])
        return real_stack(members)

    def spy_save(record, run_dir):
        saved.append(run_dir.name)
        real_save(record, run_dir)

    monkeypatch.setattr(backwater.harness, "train_stack", spy_stack)
    monkeypatch.setattr(backwater.harness, "save_record", spy_save)
    records = execute_plan(ds, plan, FAST, out_dir=tmp_path)
    # one training stack per (arch, width, fraction), in order of first appearance
    assert stacks == [
        [(cells[0], 0), (cells[0], 1), (cells[2], 0), (cells[2], 1)],
        [(cells[1], 0), (cells[1], 1)],
    ]
    names = [_dir_name(c.arch, c.strategy, c.lam, c.neurons, f, s) for c, f, s in plan.runs()]
    assert [record_dir_name(r) for r in records] == saved == names
    assert [load_record(tmp_path / name).history for name in names] == [r.history for r in records]
    # each stacked record is its solo run, all but the wall time
    ext = extrapolation_dataset(ds)
    stacks.clear()
    for record, (cell, fraction, seed) in zip(records, plan.runs()):
        solo = run_one(ds, cell, seed, FAST, fraction, ext)
        assert record.wall_time > 0.0
        assert replace(record, wall_time=0.0) == replace(solo, wall_time=0.0)
    assert stacks == [[run] for run in ((c, s) for c, _, s in plan.runs())]


def test_a_stack_subsamples_once_per_seed(ds, monkeypatch):
    import backwater.harness

    calls = []
    real_subsample = backwater.harness.subsample_training

    def spy_subsample(base, fraction, seed):
        calls.append((fraction, seed))
        return real_subsample(base, fraction, seed)

    monkeypatch.setattr(backwater.harness, "subsample_training", spy_subsample)
    cells = (ModelSpec("sp", width=8), ModelSpec("sp", "en", 0.5, 8), ModelSpec("sp", "fr", 0.5, 8))
    plan = ExperimentPlan(cells=cells, seeds=(0, 1), fractions=(0.5,))
    records = execute_plan(ds, plan, FAST)
    # one stack of six members, two distinct seeds
    assert calls == [(0.5, 0), (0.5, 1)]
    for record, (cell, fraction, seed) in zip(records, plan.runs()):
        solo = run_one(ds, cell, seed, FAST, fraction)
        assert replace(record, wall_time=0.0) == replace(solo, wall_time=0.0)


def test_a_stack_builds_each_datasets_views_once(ds, monkeypatch):
    import backwater.harness
    from backwater import models

    calls, results = [], []
    real_view, real_execute = models._VIEW_BUILDERS["vts"], backwater.harness.execute_plan

    def spy_view(base, split):
        calls.append((id(base), split))
        return real_view(base, split)

    def spy_execute(*args, **kwargs):
        records = real_execute(*args, **kwargs)
        results.extend(records)
        return records

    monkeypatch.setitem(models._VIEW_BUILDERS, "vts", spy_view)
    monkeypatch.setattr(backwater.harness, "execute_plan", spy_execute)
    spec = ModelSpec("vts", "en", width=8)
    lambda_search(ds, spec, [0.3, 0.6, 1.0], seeds=(0, 1), config=FAST, fraction=0.25)
    # one stack of six members on two subsamples (one per seed), not a view pair per member
    assert len(calls) == len(set(calls)) == 4
    assert sorted(split for _, split in calls) == ["train", "train", "val", "val"]
    assert len(results) == 6
    for record in results:
        cell = ModelSpec(record.arch, record.strategy, record.lam, record.width)
        solo = run_one(ds, cell, record.seed, FAST, record.fraction)
        assert replace(record, wall_time=0.0) == replace(solo, wall_time=0.0)


def test_execute_plan_with_extrapolation(ds, tmp_path):
    plan = ExperimentPlan(
        cells=(ModelSpec("sp", width=8),),
        seeds=(0, 1),
        extrapolation=True,
    )
    records = execute_plan(ds, plan, FAST, out_dir=tmp_path)
    assert len(records) == 2
    for record in records:
        assert "extrapolation" in record.summaries
        assert record.config["ext_count"] == len(ds.indices("test"))
    dirs = sorted(p.name for p in tmp_path.iterdir())
    assert dirs == sorted(record_dir_name(r) for r in records)


def test_record_round_trip(ds, tmp_path):
    record = run_one(ds, ModelSpec("vts", "pde", 0.5, width=8), seed=1, config=FAST)
    save_record(record, tmp_path / "run")
    loaded = load_record(tmp_path / "run")
    assert loaded.dataset_checksum == record.dataset_checksum
    assert loaded.history == record.history
    assert loaded.records == record.records
    assert loaded.summaries == record.summaries
    assert loaded.config == record.config


def test_replay_reproduces_metrics_bitwise(ds):
    record = run_one(ds, ModelSpec("sp", "en", 0.7, width=8), seed=2, config=FAST)
    again = replay(record, ds)
    assert again.records == record.records
    assert again.history == record.history
    assert again.summaries["test"] == record.summaries["test"]


def test_replay_with_extrapolation_is_bitwise_on_both_axes(ds):
    for width, fraction in ((8, 0.5), (6, 1.0)):
        plan = ExperimentPlan(
            cells=(ModelSpec("int", "en", 0.5, width),),
            seeds=(1,),
            fractions=(fraction,),
            extrapolation=True,
        )
        (record,) = execute_plan(ds, plan, FAST, ext_seed=31)
        assert record.config["ext_seed"] == 31
        again = replay(record, ds)
        assert (again.fraction, again.width) == (fraction, width) == (record.fraction, record.width)
        assert again.config == record.config
        assert again.history == record.history
        assert again.records == record.records
        assert again.summaries == record.summaries
        assert "extrapolation" in again.summaries


def test_a_run_saved_with_the_plateau_keys_replays_bitwise(ds):
    stored = load_record(OLD_RUN)
    assert (stored.config["lr_factor"], stored.config["min_lr"]) == (0.5, 1e-05)
    again = replay(stored, ds)

    def without_plateau(config):
        return {k: v for k, v in config.items() if k not in ("lr_factor", "min_lr")}

    assert again.config == without_plateau(stored.config)
    assert again.history == stored.history
    assert again.records == stored.records
    diagnostics = stored.summaries["diagnostics"]
    diagnostics = {**diagnostics, "config": without_plateau(diagnostics["config"])}
    assert again.summaries == {**stored.summaries, "diagnostics": diagnostics}
    # a plateau other than the constant one cannot be replayed
    for key, value in (("lr_factor", 0.25), ("min_lr", 0.0)):
        with pytest.raises(ValueError, match=key):
            replay(replace(stored, config={**stored.config, key: value}), ds)


def test_replay_checks_dataset_checksum(ds):
    record = run_one(ds, ModelSpec("sp", width=8), seed=0, config=FAST)
    other = generate(RANGES, GRID, seed=6)
    with pytest.raises(ValueError, match="checksum"):
        replay(record, other)


# ---------------------------------------------------------------- #
#  Lambda search
# ---------------------------------------------------------------- #


def test_lambda_search_single_candidate(ds):
    best, table = lambda_search(
        ds, ModelSpec("sp", "en", width=8), [0.5], seeds=(0,), config=FAST
    )
    assert best == 0.5
    assert len(table) == 1
    with pytest.raises(ValueError, match="fractions"):
        lambda_search(ds, ModelSpec("sp", "en", width=8), [0.5], seeds=(0,), config=FAST, fraction=3.0)
    with pytest.raises(ValueError, match="no lambda to search"):
        lambda_search(ds, ModelSpec("sp", "dd", width=8), [0.5], seeds=(0,), config=FAST)


def test_lambda_search_grid_of_one_equals_dd(ds):
    best, table = lambda_search(
        ds, ModelSpec("sp", "en", width=8), [1.0], seeds=(0,), config=FAST
    )
    dd = run_one(ds, ModelSpec("sp", "dd", width=8), seed=0, config=FAST)
    assert best == 1.0
    assert table[0]["seed_mean_val_nmae"] == dd.seed_metrics("val", "nmae")


def test_lambda_search_returns_argmin(ds):
    best, table = lambda_search(
        ds, ModelSpec("sp", "en", width=8), [0.3, 1.0], seeds=(0,), config=FAST
    )
    best_row = min(table, key=lambda r: r["seed_mean_val_nmae"])
    assert best == best_row["lam"]
    assert all(best_row["seed_mean_val_nmae"] <= r["seed_mean_val_nmae"] for r in table)


# ---------------------------------------------------------------- #
#  Reports
# ---------------------------------------------------------------- #


def test_aggregate_seed_means(ds):
    records = [
        run_one(ds, ModelSpec("sp", width=8), seed=s, config=FAST) for s in (0, 1)
    ]
    rows = aggregate(records)
    assert len(rows) == 1
    expected = np.mean([r.seed_metrics("test", "nmae") for r in records])
    assert rows[0]["seed_mean_nmae"] == pytest.approx(expected, rel=1e-15)
    assert (rows[0]["fraction"], rows[0]["split"]) == (1.0, "test")


def test_aggregate_sorts_rows_by_value(ds):
    template = run_one(ds, ModelSpec("sp", width=8), seed=0, config=FAST)
    records = [replace(template, width=w) for w in (16, 30, 4, 64, 8)]
    records += [replace(template, fraction=0.05), replace(template, fraction=0.5)]
    keys = [(row["width"], row["fraction"]) for row in aggregate(records)]
    assert keys == [(4, 1.0), (8, 0.05), (8, 0.5), (8, 1.0), (16, 1.0), (30, 1.0), (64, 1.0)]


def test_report_includes_extrapolation_rows(ds, tmp_path):
    plan = ExperimentPlan(cells=(ModelSpec("sp", width=8),), seeds=(0,), extrapolation=True)
    records = execute_plan(ds, plan, FAST, out_dir=tmp_path / "runs")
    rows = write_report(records, tmp_path / "report.csv")
    assert [row["split"] for row in rows] == ["test", "extrapolation"]
    text = (tmp_path / "report.csv").read_text().splitlines()
    assert text[0] == "arch,strategy,lambda,width,fraction,split,seed_mean_nmae,seed_mean_nnse"
    assert text[1].split(",")[:6] == ["sp", "dd", "1.0", "8", "1.0", "test"]
    assert text[2].split(",")[:6] == ["sp", "dd", "1.0", "8", "1.0", "extrapolation"]
    assert float(text[2].split(",")[6]) == records[0].seed_metrics("extrapolation", "nmae")
    assert len(text) == 3
    # records reload cleanly for aggregation
    again = discover_records(tmp_path / "runs")
    assert aggregate(again) == rows
