"""Tests for corpus generation, splitting, scaling, views, and persistence."""

import hashlib
import json
import math

import numpy as np
import pytest

from backwater.data import (
    DESK_GRID,
    PARAM_NAMES,
    ParameterRanges,
    assign_splits,
    desk_ranges,
    fit_scaler,
    generate,
    load,
    save,
    split_sizes,
    subsample_training,
    view_int,
    view_sp,
    view_vts,
)
from backwater.hydraulics import ChannelScenario, scenario_table
from backwater.solver import GridSpec

SMALL_RANGES = ParameterRanges(
    s=(1e-3, 2e-2, 3),
    b=(10.0, 30.0, 2),
    n=(0.01, 0.03, 2),
    zd=(1.0, 3.0, 2),
    Q=(100.0, 250.0, 2),
)


@pytest.fixture(scope="module")
def small_ds():
    return generate(SMALL_RANGES, GridSpec(dx=10.0, length=300.0), seed=5)


# ---------------------------------------------------------------- #
#  Split arithmetic
# ---------------------------------------------------------------- #


def test_split_sizes_follow_70_15_15_toward_train():
    assert split_sizes(10390) == (7274, 1558, 1558)
    assert split_sizes(500) == (350, 75, 75)
    assert split_sizes(1) == (1, 0, 0)


def test_assign_splits_partitions_exactly():
    split = assign_splits(480, seed=3)
    assert split.count("train") == 336
    assert split.count("val") == 72
    assert split.count("test") == 72
    assert assign_splits(480, seed=3) == split  # deterministic
    assert assign_splits(480, seed=4) != split


# ---------------------------------------------------------------- #
#  Generation
# ---------------------------------------------------------------- #


def test_generate_small_corpus(small_ds):
    counts = small_ds.manifest["counts"]
    assert counts["grid"] == 48
    assert counts["retained"] == len(small_ds.profiles)
    assert counts["train"] + counts["val"] + counts["test"] == counts["retained"]
    regimes = {p.regime for p in small_ds.profiles}
    assert regimes == {"subcritical", "mixed"}
    assert small_ds.manifest["seed"] == 5
    assert small_ds.manifest["split_seed"] == 5


def test_desk_preset_solves_every_cell():
    ds = generate(desk_ranges(), DESK_GRID, seed=0)
    assert ds.manifest["counts"] == {
        "grid": 500,
        "retained": 500,
        "train": 350,
        "val": 75,
        "test": 75,
    }
    assert ds.manifest["rejected"] == []
    assert all(p.regime == "subcritical" for p in ds.profiles)
    assert ds.grid.n_points == 101


def test_generate_degenerate_grid_single_profile():
    ranges = ParameterRanges(
        s=(1e-3, 1e-3, 1),
        b=(10.0, 10.0, 1),
        n=(0.02, 0.02, 1),
        zd=(3.0, 3.0, 1),
        Q=(100.0, 100.0, 1),
    )
    ds = generate(ranges, GridSpec(dx=10.0, length=200.0), seed=0)
    assert len(ds.profiles) == 1
    assert ds.split == ["train"]
    # Constant features are acceptable until someone scales with them.
    with pytest.raises(ValueError, match="'Q'"):
        ds.scaler.scale("Q", [100.0])


def test_generate_rejects_badly_chosen_ranges():
    # A neighbourhood of near-critical mild channels: the dx=10 march fails
    # for most of them, which must surface as a configuration error.
    ranges = ParameterRanges(
        s=(0.00537, 0.00538, 2),
        b=(16.25, 50.0, 4),
        n=(0.02, 0.0201, 2),
        zd=(1.0, 5.0, 2),
        Q=(10.0, 10.1, 2),
    )
    with pytest.raises(ValueError, match="rejected"):
        generate(ranges, GridSpec(dx=10.0, length=1000.0), seed=0)


def test_parameter_ranges_validation():
    with pytest.raises(ValueError):
        ParameterRanges(
            s=(2e-2, 1e-3, 3),  # min > max
            b=(10.0, 30.0, 2),
            n=(0.01, 0.03, 2),
            zd=(1.0, 3.0, 2),
            Q=(100.0, 250.0, 2),
        )
    with pytest.raises(ValueError):
        ParameterRanges(
            s=(1e-3, 1e-3, 3),  # count >= 2 needs min < max
            b=(10.0, 30.0, 2),
            n=(0.01, 0.03, 2),
            zd=(1.0, 3.0, 2),
            Q=(100.0, 250.0, 2),
        )


# ---------------------------------------------------------------- #
#  Scenario table
# ---------------------------------------------------------------- #


def test_scenario_table_round_trips_in_param_order(small_ds):
    scens = [p.scenario for p in small_ds.profiles]
    table = scenario_table(scens)
    assert table.shape == (len(scens), len(PARAM_NAMES)) and table.dtype == float
    assert [ChannelScenario(*row) for row in table.tolist()] == scens
    for j, name in enumerate(PARAM_NAMES):
        field = "z_d" if name == "zd" else name
        np.testing.assert_array_equal(table[:, j], [getattr(s, field) for s in scens])
    assert scenario_table([]).shape == (0, len(PARAM_NAMES))


def test_scale_table_scales_each_column_by_name(small_ds):
    table = scenario_table([p.scenario for p in small_ds.profiles])
    scaled = small_ds.scaler.scale_table(table)
    for j, name in enumerate(PARAM_NAMES):
        assert scaled[:, j].tobytes() == small_ds.scaler.scale(name, table[:, j]).tobytes()


# ---------------------------------------------------------------- #
#  Scaler
# ---------------------------------------------------------------- #


def test_scaler_standardizes_training_columns(small_ds):
    batch = view_sp(small_ds, "train")
    for col in range(batch.inputs.shape[1]):
        assert np.mean(batch.inputs[:, col]) == pytest.approx(0.0, abs=1e-12)
        assert np.std(batch.inputs[:, col]) == pytest.approx(1.0, abs=1e-12)


def test_scaler_uses_training_rows_only(small_ds):
    recomputed = fit_scaler(small_ds.profiles_in("train"))
    assert recomputed == small_ds.scaler
    # Validation columns scaled with training statistics are off-center.
    val = view_sp(small_ds, "val")
    assert abs(np.mean(val.inputs[:, 1])) > 1e-6


def test_scaler_round_trip(small_ds):
    rng = np.random.default_rng(0)
    values = rng.uniform(0.5, 8.0, size=64)
    back = small_ds.scaler.inverse("h", small_ds.scaler.scale("h", values))
    np.testing.assert_allclose(back, values, atol=1e-12)


# ---------------------------------------------------------------- #
#  Views
# ---------------------------------------------------------------- #


def test_view_sp_sample_layout(small_ds):
    n_pts = small_ds.grid.n_points
    train_profiles = small_ds.profiles_in("train")
    batch = view_sp(small_ds, "train")
    assert len(batch) == len(train_profiles) * n_pts
    assert batch.inputs.shape[1] == 6
    assert batch.targets.shape == (len(batch), 1)
    # Targets are the depths verbatim, profile-major.
    np.testing.assert_array_equal(batch.targets[:n_pts, 0], train_profiles[0].depths)
    # Aux carries raw (unscaled) scenario values.
    assert batch.aux["Q"][0] == train_profiles[0].scenario.Q
    assert batch.aux["dx"] == small_ds.grid.dx


def test_view_int_pairs_and_reassembly(small_ds):
    n_pts = small_ds.grid.n_points
    batch = view_int(small_ds, "train")
    train_profiles = small_ds.profiles_in("train")
    assert len(batch) == len(train_profiles) * (n_pts - 1)
    assert batch.targets.shape == (len(batch), 1)
    # Reassembling the first profile from its pairs reproduces it exactly.
    h_in_raw = small_ds.scaler.inverse("h", batch.inputs[: n_pts - 1, 0])
    rebuilt = np.concatenate([h_in_raw[:1], batch.targets[: n_pts - 1, 0]])
    np.testing.assert_allclose(rebuilt, train_profiles[0].depths, atol=1e-12)


def test_view_int_includes_jump_pair_and_uniform_pairs(small_ds):
    mixed = [
        (k, p)
        for k, p in enumerate(small_ds.profiles)
        if p.regime == "mixed" and small_ds.split[k] == "train"
    ]
    assert mixed, "expected at least one mixed-regime training profile"
    k, profile = mixed[0]
    j = profile.jump_index
    batch = view_int(small_ds, "train")
    mask = np.repeat(small_ds.indices("train"), small_ds.grid.n_points - 1) == k
    h_in_raw = small_ds.scaler.inverse("h", batch.inputs[mask, 0])
    targets = batch.targets[mask, 0]
    # The pair straddling the jump is present, not filtered out.
    assert h_in_raw[j - 1] == pytest.approx(profile.depths[j - 1], abs=1e-12)
    assert targets[j - 1] == profile.depths[j]
    # Uniform reach upstream of the jump: target equals the raw input depth.
    np.testing.assert_allclose(h_in_raw[j:], targets[j:], atol=1e-12)


def test_view_vts_targets_are_profiles_verbatim(small_ds):
    batch = view_vts(small_ds, "test")
    test_profiles = small_ds.profiles_in("test")
    assert batch.inputs.shape == (len(test_profiles), 5)
    assert batch.targets.shape == (len(test_profiles), small_ds.grid.n_points)
    for row, profile in zip(batch.targets, test_profiles):
        np.testing.assert_array_equal(row, profile.depths)


# ---------------------------------------------------------------- #
#  Subsampling
# ---------------------------------------------------------------- #


def test_subsample_keeps_whole_profiles_and_refits_scaler(small_ds):
    assert math.ceil(0.05 * 7274) == 364  # the ceiling rule at full scale
    n_train = len(small_ds.indices("train"))
    sub = subsample_training(small_ds, 0.25, seed=1)
    assert len(sub.indices("train")) == math.ceil(0.25 * n_train)
    # Validation and test untouched, in the same order.
    for split in ("val", "test"):
        np.testing.assert_array_equal(
            [id(p) for p in sub.profiles_in(split)],
            [id(p) for p in small_ds.profiles_in(split)],
        )
    # Scaler refitted on the reduced training split.
    assert sub.scaler == fit_scaler(sub.profiles_in("train"))
    assert sub.scaler != small_ds.scaler


def test_subsample_full_fraction_is_identity(small_ds):
    sub = subsample_training(small_ds, 1.0, seed=9)
    assert [id(p) for p in sub.profiles] == [id(p) for p in small_ds.profiles]
    assert sub.scaler == small_ds.scaler


def test_subsample_guards(small_ds):
    with pytest.raises(ValueError):
        subsample_training(small_ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        subsample_training(small_ds, 1e-4, seed=0)  # < 2 profiles


# ---------------------------------------------------------------- #
#  Persistence
# ---------------------------------------------------------------- #


def test_save_load_round_trip(tmp_path, small_ds):
    path = tmp_path / "corpus.csv"
    save(small_ds, path)
    back = load(path)
    assert back.split == small_ds.split
    assert back.scaler == small_ds.scaler
    assert back.manifest["seed"] == small_ds.manifest["seed"]
    assert len(back.profiles) == len(small_ds.profiles)
    for a, b in zip(back.profiles, small_ds.profiles):
        assert a.scenario == b.scenario
        assert a.regime == b.regime
        assert a.jump_index == b.jump_index
        np.testing.assert_array_equal(a.depths, b.depths)
    assert back.content_hash() == small_ds.content_hash()


def test_load_rejects_truncated_csv(tmp_path, small_ds):
    path = tmp_path / "corpus.csv"
    save(small_ds, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="checksum"):
        load(path)


def test_load_rejects_version_mismatch(tmp_path, small_ds):
    path = tmp_path / "corpus.csv"
    save(small_ds, path)
    mpath = tmp_path / "corpus.manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["format_version"] = 99
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="version"):
        load(path)


def saved_manifest(tmp_path, small_ds):
    """Save the corpus; returns (csv path, manifest path, manifest dict)."""
    path = tmp_path / "corpus.csv"
    save(small_ds, path)
    mpath = tmp_path / "corpus.manifest.json"
    return path, mpath, json.loads(mpath.read_text())


def test_load_names_a_missing_manifest_key(tmp_path, small_ds):
    path, mpath, manifest = saved_manifest(tmp_path, small_ds)
    for key in ("regimes", "jump_indices", "split", "csv_sha256"):
        mpath.write_text(json.dumps({k: v for k, v in manifest.items() if k != key}))
        with pytest.raises(ValueError, match=f"lacks '{key}'"):
            load(path)


def test_load_rejects_per_profile_lists_of_the_wrong_length(tmp_path, small_ds):
    path, mpath, manifest = saved_manifest(tmp_path, small_ds)
    rows = len(small_ds.profiles)
    for key in ("regimes", "jump_indices", "split"):
        for entries in (manifest[key][:-1], manifest[key] + manifest[key][:1]):
            mpath.write_text(json.dumps({**manifest, key: entries}))
            with pytest.raises(ValueError, match=rf"'{key}' needs one entry per CSV row \({rows}\)"):
                load(path)


def test_csv_header_contract(tmp_path, small_ds):
    path = tmp_path / "corpus.csv"
    save(small_ds, path)
    header = path.read_text().splitlines()[0]
    n_pts = small_ds.grid.n_points
    assert header.startswith("s,b,n,zd,Q,h0,h1,")
    assert header.endswith(f"h{n_pts - 1}")


def test_load_rejects_bad_manifest_entries_naming_key_and_row(tmp_path, small_ds):
    path, mpath, manifest = saved_manifest(tmp_path, small_ds)
    n_pts = small_ds.grid.n_points
    mixed = manifest["regimes"].index("mixed")
    sub = manifest["regimes"].index("subcritical")

    def with_entry(key, row, value):
        entries = list(manifest[key])
        entries[row] = value
        return {**manifest, key: entries}

    cases = (
        (with_entry("split", 3, "training"), r"'split' row 3: 'training'"),
        (with_entry("split", 0, None), r"'split' row 0"),
        (with_entry("regimes", 2, "banana"), r"'regimes' row 2: 'banana'"),
        (with_entry("jump_indices", mixed, 7.5), rf"'jump_indices' row {mixed}: .*7\.5"),
        (with_entry("jump_indices", mixed, None), rf"'jump_indices' row {mixed}"),
        (with_entry("jump_indices", mixed, 0), rf"'jump_indices' row {mixed}"),
        (with_entry("jump_indices", mixed, n_pts), rf"'jump_indices' row {mixed}"),
        (with_entry("jump_indices", mixed, True), rf"'jump_indices' row {mixed}"),
        (with_entry("jump_indices", sub, 4), rf"'jump_indices' row {sub}: a subcritical"),
        ({**manifest, "split": "train"}, r"'split' must be a list"),
    )
    for broken, message in cases:
        mpath.write_text(json.dumps(broken))
        with pytest.raises(ValueError, match=message):
            load(path)


def test_load_rejects_bad_csv_values_naming_row_and_column(tmp_path, small_ds):
    path, mpath, manifest = saved_manifest(tmp_path, small_ds)
    lines = path.read_text().splitlines()

    def load_with_row(row, fields):
        edited = list(lines)
        edited[1 + row] = ",".join(fields)
        path.write_text("\n".join(edited) + "\n")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        mpath.write_text(json.dumps({**manifest, "csv_sha256": digest}))
        return load(path)

    fields = lines[1 + 4].split(",")
    for col, value in ((7, "nan"), (9, "inf"), (5, "0.0"), (12, "-1.5")):
        with pytest.raises(ValueError, match=rf"row 4: depth 'h{col - 5}'"):
            load_with_row(4, fields[:col] + [value] + fields[col + 1:])
    with pytest.raises(ValueError, match=r"row 4: .*'b' must be positive"):
        load_with_row(4, fields[:1] + ["-2.0"] + fields[2:])
    with pytest.raises(ValueError, match=r"row 4: .*fields"):
        load_with_row(4, fields[:-1])
    with pytest.raises(ValueError, match=r"row 4: could not convert"):
        load_with_row(4, fields[:3] + ["x"] + fields[4:])
    assert load_with_row(4, fields).content_hash() == small_ds.content_hash()
