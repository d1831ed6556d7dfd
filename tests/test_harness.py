"""Tests for experiment plans, run records, extrapolation sets, and reports."""

import math

import numpy as np
import pytest

from backwater.data import DESK_GRID, ParameterRanges, desk_ranges, generate
from backwater.harness import (
    ExperimentPlan,
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
        axis="fraction",
        axis_values=(1.0, 0.5, 0.25, 0.1, 0.05),
    )
    runs = list(plan.runs())
    assert len(runs) == 2 * 5 * 3
    assert runs[0] == (ModelSpec("sp"), 1.0, 0)
    assert runs[-1] == (ModelSpec("sp", "en", 0.7), 0.05, 2)


def test_plan_validation():
    cell = ModelSpec("sp")
    with pytest.raises(ValueError):
        ExperimentPlan(cells=())
    with pytest.raises(ValueError):
        ExperimentPlan(cells=(cell,), axis="depth", axis_values=(1,))
    with pytest.raises(ValueError):
        ExperimentPlan(cells=(cell,), axis="fraction", axis_values=(0.0,))
    with pytest.raises(ValueError):
        ExperimentPlan(cells=(cell,), axis="width", axis_values=(1,))
    with pytest.raises(ValueError):
        ExperimentPlan(cells=(cell,), axis="fraction", axis_values=())
    with pytest.raises(ValueError):
        ModelSpec("sp", "vol")  # vts-only strategy


# ---------------------------------------------------------------- #
#  Extrapolation sets
# ---------------------------------------------------------------- #


def test_extrapolation_set_construction(ds):
    profiles = make_extrapolation_set(RANGES, GRID, count=20, seed=11)
    assert len(profiles) == 20
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
    a = make_extrapolation_set(RANGES, GRID, count=5, seed=3)
    b = make_extrapolation_set(RANGES, GRID, count=5, seed=3)
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
    profiles = []
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
        except (InsufficientEnergyError, ConvergenceError):
            continue
    if (attempts - count) > 0.25 * attempts:
        raise ValueError(
            f"extrapolation sampling rejected too often "
            f"({attempts - count}/{attempts} draws failed, >25%)"
        )
    return profiles


@pytest.mark.parametrize("ranges,seed", [(desk_ranges(), 7919), (WIDE_RANGES, 11)], ids=["desk", "wide"])
def test_extrapolation_set_matches_draw_one_solve_one(ranges, seed):
    batched = make_extrapolation_set(ranges, DESK_GRID, count=75, seed=seed)
    reference = draw_one_solve_one(ranges, DESK_GRID, count=75, seed=seed)
    assert len(batched) == len(reference) == 75
    for got, want in zip(batched, reference):
        assert got.scenario == want.scenario
        assert np.array_equal(got.depths, want.depths)
        assert (got.regime, got.jump_index) == (want.regime, want.jump_index)


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
    assert record.axis == "none" and record.axis_value is None
    assert record.dataset_checksum == ds.content_hash()
    assert record.wall_time > 0.0
    assert len(record.history) == 4
    assert {r.split for r in record.records} == {"val", "test"}
    assert set(record.summaries) == {"val", "test", "diagnostics"}
    assert record.config["fraction"] == 1.0


def test_run_one_fraction_axis(ds):
    record = run_one(
        ds, ModelSpec("sp", width=8), seed=0, config=FAST, axis="fraction", axis_value=0.5
    )
    assert record.config["fraction"] == 0.5
    assert record.axis_value == 0.5


def test_run_one_int_reports_station_curve(ds):
    record = run_one(ds, ModelSpec("int", width=8), seed=0, config=FAST)
    curve = record.summaries["station_mae"]
    assert len(curve) == GRID.n_points
    assert curve[0] == 0.0  # imposed weir boundary is exact


def test_run_one_predicts_each_split_once(ds, monkeypatch):
    import backwater.harness
    import backwater.metrics
    from backwater.models import predict

    calls = []

    def counting_predict(model, scenarios, *args, **kwargs):
        calls.append(len(scenarios))
        return predict(model, scenarios, *args, **kwargs)

    monkeypatch.setattr(backwater.harness, "predict", counting_predict)
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
    for axis, values in (("fraction", (0.5,)), ("width", (6,))):
        plan = ExperimentPlan(
            cells=(ModelSpec("int", "en", 0.5, 8),),
            seeds=(1,),
            axis=axis,
            axis_values=values,
            extrapolation=True,
        )
        (record,) = execute_plan(ds, plan, FAST, ext_seed=31)
        assert record.config["ext_seed"] == 31
        again = replay(record, ds)
        assert (again.axis, again.axis_value, again.width) == (record.axis, record.axis_value, record.width)
        assert again.config == record.config
        assert again.history == record.history
        assert again.records == record.records
        assert again.summaries == record.summaries
        assert "extrapolation" in again.summaries


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
    assert rows[0]["axis"] == "none"


def test_report_includes_extrapolation_rows(ds, tmp_path):
    plan = ExperimentPlan(cells=(ModelSpec("sp", width=8),), seeds=(0,), extrapolation=True)
    records = execute_plan(ds, plan, FAST, out_dir=tmp_path / "runs")
    rows = write_report(records, tmp_path / "report.csv")
    axes = [row["axis"] for row in rows]
    assert axes == ["none", "ext_none"]
    text = (tmp_path / "report.csv").read_text().splitlines()
    assert text[0] == "arch,strategy,lambda,width,axis,axis_value,seed_mean_nmae,seed_mean_nnse"
    assert text[1].split(",")[:5] == ["sp", "dd", "1.0", "8", "none"]
    assert len(text) == 3
    # records reload cleanly for aggregation
    again = discover_records(tmp_path / "runs")
    assert aggregate(again) == rows
