"""Tests for profile metrics, distribution summaries, and set evaluation."""

import numpy as np
import pytest

from backwater.data import ParameterRanges, generate
from backwater.metrics import (
    ProfileMetrics,
    _row_scores,
    empirical_cdf,
    evaluate_set,
    per_station_mae,
    read_metrics_csv,
    summarize,
    write_metrics_csv,
)
from backwater.solver import GridSpec, WaterProfile

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


def oracle(tiny_ds):
    """Exact predictions: every true profile, in profile order."""
    return np.array([p.depths for p in tiny_ds.profiles])


def batch_of_one(pred, true, z_d=1.0):
    """(NMAE, NSE, NNSE, NSE undefined) of one profile: the (1, n) rows of ``_row_scores``."""
    row_nmae, row_nse, undefined = _row_scores(np.reshape(pred, (1, -1)), np.reshape(true, (1, -1)), z_d)
    nse = float(row_nse[0])
    return float(row_nmae[0]), nse, 1.0 / (2.0 - nse), bool(undefined[0])


def nmae(pred, true, z_d):
    return batch_of_one(pred, true, z_d)[0]


def nnse(pred, true):
    return batch_of_one(pred, true)[2]


def flat_profile(tiny_ds):
    """A constant-depth fake: its NSE, and so its NNSE, is undefined."""
    first = tiny_ds.profiles[0]
    return WaterProfile(first.scenario, first.grid, np.full(tiny_ds.grid.n_points, 2.0))


# ---------------------------------------------------------------- #
#  NMAE
# ---------------------------------------------------------------- #


def test_nmae_identities():
    true = np.linspace(1.0, 3.0, 50)
    assert nmae(true, true, 2.0) == 0.0
    assert nmae(true + 0.2, true, 2.0) == pytest.approx(0.1, rel=1e-12)


def test_nmae_matches_independent_recomputation():
    rng = np.random.default_rng(0)
    true = rng.uniform(0.5, 5.0, 73)
    pred = true + rng.normal(0.0, 0.4, 73)
    expected = float(sum(abs(a - b) for a, b in zip(pred, true)) / (73 * 2.7))
    assert nmae(pred, true, 2.7) == pytest.approx(expected, rel=1e-12)


def test_nmae_detects_translation():
    rng = np.random.default_rng(1)
    true = rng.uniform(0.5, 5.0, 40)
    assert nmae(true + 0.35, true, 1.4) == pytest.approx(0.35 / 1.4, rel=1e-12)


def test_nmae_validation(tiny_ds):
    with pytest.raises(ValueError):
        evaluate_set(oracle(tiny_ds)[:, :-1], tiny_ds.profiles)
    with pytest.raises(ValueError):
        nmae(np.ones(3), np.ones(3), 0.0)


# ---------------------------------------------------------------- #
#  NSE / NNSE
# ---------------------------------------------------------------- #


def test_nnse_identities():
    rng = np.random.default_rng(2)
    true = rng.uniform(0.5, 5.0, 60)
    assert nnse(true, true) == 1.0
    mean_pred = np.full_like(true, true.mean())
    assert nnse(mean_pred, true) == pytest.approx(0.5, abs=1e-12)


def test_nnse_stays_positive_for_terrible_predictions():
    true = np.linspace(1.0, 2.0, 30)
    value = nnse(true + 1e6, true)
    assert 0.0 < value < 1e-6


def test_nnse_increases_with_nse():
    true = np.linspace(1.0, 2.0, 30)
    nnse_values = [nnse(true + delta, true) for delta in (0.5, 0.2, 0.05, 0.0)]
    nse_values = [batch_of_one(true + delta, true)[1] for delta in (0.5, 0.2, 0.05, 0.0)]
    assert nse_values == sorted(nse_values)
    assert nnse_values == sorted(nnse_values)
    assert nnse_values[-1] == 1.0


def test_nnse_undefined_for_constant_profile(tiny_ds):
    assert batch_of_one(np.ones(10), np.full(10, 2.0))[3]
    flat = flat_profile(tiny_ds)
    out = evaluate_set(np.ones((2, tiny_ds.grid.n_points)), [flat, tiny_ds.profiles[0]])
    assert out.excluded == out.summary["excluded"] == 1
    assert len(out.records) == 1


# ---------------------------------------------------------------- #
#  Summaries
# ---------------------------------------------------------------- #


def test_summarize_single_value():
    s = summarize([3.2])
    assert list(s) == ["mean", "p10", "p25", "p50", "p75", "p90", "skewness"]
    assert tuple(s[k] for k in ("mean", "p10", "p25", "p50", "p75", "p90")) == (3.2,) * 6
    assert s["skewness"] == 0.0
    cdf_values, cdf_freq = empirical_cdf([3.2])
    np.testing.assert_array_equal(cdf_values, [3.2])
    np.testing.assert_array_equal(cdf_freq, [1.0])


def test_summarize_percentile_convention():
    s = summarize(np.arange(1, 101, dtype=float))
    assert s["p50"] == pytest.approx(50.5, rel=1e-12)
    assert s["p25"] == pytest.approx(np.percentile(np.arange(1, 101), 25), rel=1e-12)
    assert s["mean"] == pytest.approx(50.5, rel=1e-12)


def test_summarize_cdf_monotone_to_one():
    rng = np.random.default_rng(3)
    cdf_values, cdf_freq = empirical_cdf(rng.uniform(0.0, 1.0, 257))
    assert np.all(np.diff(cdf_values) >= 0.0)
    assert np.all(np.diff(cdf_freq) > 0.0)
    assert cdf_freq[-1] == 1.0
    assert cdf_values[-1] == cdf_values.max()


def test_summarize_skewness_signs():
    assert summarize([1.0, 2.0, 3.0])["skewness"] == pytest.approx(0.0, abs=1e-12)
    assert summarize([1.0, 1.0, 1.0, 10.0])["skewness"] > 0.0


def test_summarize_empty_errors():
    with pytest.raises(ValueError):
        summarize([])


# ---------------------------------------------------------------- #
#  Set evaluation
# ---------------------------------------------------------------- #


def test_evaluate_set_perfect_oracle(tiny_ds):
    out = evaluate_set(oracle(tiny_ds), tiny_ds.profiles, split="test")
    assert out.summary["nmae"]["mean"] == 0.0
    assert out.summary["nnse"]["mean"] == 1.0
    assert out.excluded == 0
    assert len(out.records) == len(tiny_ds.profiles)
    assert {r.split for r in out.records} == {"test"}


def test_evaluate_set_mean_predictor_baseline(tiny_ds):
    pred = np.array([np.full_like(p.depths, p.depths.mean()) for p in tiny_ds.profiles])
    out = evaluate_set(pred, tiny_ds.profiles)
    assert out.summary["nnse"]["mean"] == pytest.approx(0.5, abs=1e-12)


def test_evaluate_set_counts_exclusions(tiny_ds):
    profiles = list(tiny_ds.profiles) + [flat_profile(tiny_ds)]
    pred = np.vstack([oracle(tiny_ds), np.ones(tiny_ds.grid.n_points)])
    out = evaluate_set(pred, profiles)
    assert out.excluded == 1
    assert len(out.records) == len(tiny_ds.profiles)


def test_evaluate_set_ids_and_regimes(tiny_ds):
    ids = [10 * i for i in range(len(tiny_ds.profiles))]
    out = evaluate_set(oracle(tiny_ds), tiny_ds.profiles, ids=ids)
    assert [r.profile_id for r in out.records] == ids
    assert all(r.regime == p.regime for r, p in zip(out.records, tiny_ds.profiles))


def test_evaluate_set_needs_one_id_per_profile(tiny_ds):
    # a short id list would silently drop the profiles it does not reach
    profiles = tiny_ds.profiles[:4]
    for ids in ([0], list(range(5))):
        with pytest.raises(ValueError, match=f"{len(ids)} ids for 4 profiles"):
            evaluate_set(oracle(tiny_ds)[:4], profiles, ids=ids)


def per_profile_scores(pred, true, z_d):
    """(NMAE, NNSE) of one profile, one 1-D reduction at a time; NNSE is None when undefined."""
    score_nmae = float(np.sum(np.abs(true - pred)) / (true.size * z_d))
    denom = float(np.sum((true - true.mean()) ** 2))
    if denom == 0.0:
        return score_nmae, None
    return score_nmae, 1.0 / (2.0 - (1.0 - float(np.sum((true - pred) ** 2)) / denom))


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def test_evaluate_set_rows_equal_per_profile_scores_bitwise(tiny_ds):
    profiles = [flat_profile(tiny_ds)] + list(tiny_ds.profiles)
    rng = np.random.default_rng(11)
    pred = np.array([p.depths + rng.normal(0.0, 0.2, p.depths.size) for p in profiles])
    pred[3, 5] = np.nan
    out = evaluate_set(pred, profiles, split="test")  # RuntimeWarnings are errors here
    expected = []
    for row, prof in zip(pred, profiles):
        score_nmae, score_nnse = per_profile_scores(row, prof.depths, prof.scenario.z_d)
        assert bits(nmae(row, prof.depths, prof.scenario.z_d)) == bits(score_nmae)
        if score_nnse is not None:
            expected.append((score_nmae, score_nnse))
            assert bits(nnse(row, prof.depths)) == bits(score_nnse)
    assert out.excluded == 1
    got = np.array([(r.nmae, r.nnse) for r in out.records])
    assert np.isnan(got[2]).all() and np.isfinite(np.delete(got, 2, axis=0)).all()
    assert got.tobytes() == np.array(expected).tobytes()


def test_per_station_mae_equals_the_sequential_row_sum_bitwise(tiny_ds):
    rng = np.random.default_rng(12)
    pred = oracle(tiny_ds) + rng.normal(0.0, 0.3, (len(tiny_ds.profiles), tiny_ds.grid.n_points))
    errors = np.zeros(tiny_ds.grid.n_points)
    for row, prof in zip(pred, tiny_ds.profiles):
        errors += np.abs(row - prof.depths)
    expected = errors / len(tiny_ds.profiles)
    assert per_station_mae(pred, tiny_ds.profiles).tobytes() == expected.tobytes()


def test_per_station_mae_curve(tiny_ds):
    ramp = np.linspace(0.0, 0.5, tiny_ds.grid.n_points)
    curve = per_station_mae(oracle(tiny_ds) + ramp, tiny_ds.profiles)
    np.testing.assert_allclose(curve, ramp, atol=1e-12)


def test_prediction_arrays_must_match_the_profiles(tiny_ds):
    pred = oracle(tiny_ds)
    for wrong in (pred[:-1], pred[:, :-1], pred[0]):
        with pytest.raises(ValueError, match="prediction array has shape"):
            evaluate_set(wrong, tiny_ds.profiles)
        with pytest.raises(ValueError, match="prediction array has shape"):
            per_station_mae(wrong, tiny_ds.profiles)
    with pytest.raises(ValueError, match="at least one profile"):
        evaluate_set(pred[:0], [])


# ---------------------------------------------------------------- #
#  CSV round trip
# ---------------------------------------------------------------- #


def test_metrics_csv_round_trip(tmp_path, tiny_ds):
    rng = np.random.default_rng(4)
    pred = np.array([p.depths + rng.normal(0.0, 0.1, p.depths.size) for p in tiny_ds.profiles])
    out = evaluate_set(pred, tiny_ds.profiles, split="val")
    path = tmp_path / "metrics.csv"
    write_metrics_csv(out.records, path)
    loaded = read_metrics_csv(path)
    assert loaded == out.records
    # summaries recomputed from the file match the originals exactly
    assert summarize([r.nmae for r in loaded])["mean"] == out.summary["nmae"]["mean"]
    assert summarize([r.nnse for r in loaded])["p90"] == out.summary["nnse"]["p90"]


def test_metrics_csv_header_guard(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_metrics_csv(path)
