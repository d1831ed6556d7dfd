"""Per-profile accuracy metrics and distribution summaries.

NMAE normalizes mean absolute depth error by the dam height (the natural
length scale of a backwater profile); NNSE rescales the Nash-Sutcliffe
efficiency into (0, 1] so badly wrong models stay comparable.  Summaries
carry the mean (the headline number), box-plot percentiles, skewness, and
the full empirical CDF.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import TrainedModel, predict


class UndefinedMetricError(ValueError):
    """The metric has no value for this input (e.g. constant true profile)."""


# ---------------------------------------------------------------------- #
#  Scalar metrics
# ---------------------------------------------------------------------- #


def _paired(pred, true):
    pred = np.asarray(pred, dtype=float)
    true = np.asarray(true, dtype=float)
    if pred.shape != true.shape:
        raise ValueError(f"profile shapes differ: {pred.shape} vs {true.shape}")
    return pred, true


def nmae(pred, true, z_d: float) -> float:
    """Mean absolute error normalized by the dam height."""
    pred, true = _paired(pred, true)
    if not z_d > 0.0:
        raise ValueError("z_d must be positive")
    return float(np.sum(np.abs(true - pred)) / (true.size * z_d))


def nse(pred, true) -> float:
    """Nash-Sutcliffe efficiency against the true profile's own mean."""
    pred, true = _paired(pred, true)
    denom = float(np.sum((true - true.mean()) ** 2))
    if denom == 0.0:
        raise UndefinedMetricError("NSE is undefined for a constant true profile")
    return 1.0 - float(np.sum((true - pred) ** 2)) / denom


def nnse(pred, true) -> float:
    """NSE rescaled into (0, 1]: 1/(2 - NSE)."""
    return 1.0 / (2.0 - nse(pred, true))


# ---------------------------------------------------------------------- #
#  Distribution summaries
# ---------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class DistributionSummary:
    """Mean, box percentiles, skewness, and the empirical CDF of a sample."""

    mean: float
    p10: float
    p25: float
    p50: float
    p75: float
    p90: float
    skewness: float
    cdf_values: np.ndarray
    cdf_freq: np.ndarray

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "p10": self.p10,
            "p25": self.p25,
            "p50": self.p50,
            "p75": self.p75,
            "p90": self.p90,
            "skewness": self.skewness,
        }


def summarize(values) -> DistributionSummary:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot summarize an empty sample")
    p10, p25, p50, p75, p90 = np.percentile(values, [10, 25, 50, 75, 90])
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    skew = float(np.mean(centered**3) / m2**1.5) if m2 > 0.0 else 0.0
    order = np.sort(values)
    freq = np.arange(1, values.size + 1) / values.size
    return DistributionSummary(
        mean=float(values.mean()),
        p10=float(p10),
        p25=float(p25),
        p50=float(p50),
        p75=float(p75),
        p90=float(p90),
        skewness=skew,
        cdf_values=order,
        cdf_freq=freq,
    )


# ---------------------------------------------------------------------- #
#  Set evaluation
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ProfileMetrics:
    """One profile's scores plus the identifiers the results CSV carries."""

    profile_id: int
    split: str
    regime: str
    nmae: float
    nnse: float


@dataclass(frozen=True, eq=False)
class SetEvaluation:
    records: list[ProfileMetrics]
    nmae_summary: DistributionSummary
    nnse_summary: DistributionSummary
    excluded: int


def _predictions(model, profiles) -> np.ndarray:
    """The (P, n_points) predictions for ``profiles``: a model's, or a given array."""
    if not profiles:
        raise ValueError("need at least one profile")
    if isinstance(model, TrainedModel):
        if any(prof.grid != model.grid for prof in profiles):
            raise ValueError("evaluation profiles must share the model grid")
        return predict(model, [prof.scenario for prof in profiles])
    pred = np.asarray(model, dtype=float)
    expected = (len(profiles), profiles[0].grid.n_points)
    if pred.shape != expected:
        raise ValueError(f"prediction array has shape {pred.shape}, expected {expected}")
    return pred


def evaluate_set(model, profiles, ids=None, split: str = "") -> SetEvaluation:
    """Score every profile's prediction; summaries over the whole set.

    ``model`` is a TrainedModel (one :func:`~.models.predict` call) or a
    (P, n_points) prediction array in profile order, e.g. an exact oracle or a
    prediction shared with :func:`per_station_mae`.  Profiles whose metrics
    are undefined are dropped from the summaries and counted in ``excluded``.
    """
    preds = _predictions(model, profiles)
    if ids is None:
        ids = list(range(len(profiles)))
    records = []
    excluded = 0
    for pid, prof, pred in zip(ids, profiles, preds):
        try:
            score_nnse = nnse(pred, prof.depths)
        except UndefinedMetricError:
            excluded += 1
            continue
        records.append(
            ProfileMetrics(
                profile_id=int(pid),
                split=split,
                regime=prof.regime,
                nmae=nmae(pred, prof.depths, prof.scenario.z_d),
                nnse=score_nnse,
            )
        )
    if not records:
        raise ValueError("no profiles could be evaluated")
    return SetEvaluation(
        records=records,
        nmae_summary=summarize([r.nmae for r in records]),
        nnse_summary=summarize([r.nnse for r in records]),
        excluded=excluded,
    )


def per_station_mae(model, profiles) -> np.ndarray:
    """Mean absolute depth error per station index (error-growth curve).

    ``model`` is a TrainedModel or a prediction array, as in :func:`evaluate_set`.
    """
    preds = _predictions(model, profiles)
    errors = np.zeros(preds.shape[1])
    for pred, prof in zip(preds, profiles):
        errors += np.abs(pred - prof.depths)
    return errors / len(profiles)


# ---------------------------------------------------------------------- #
#  Results CSV
# ---------------------------------------------------------------------- #

METRICS_HEADER = ("profile_id", "split", "regime", "nmae", "nnse")


def write_metrics_csv(records: list[ProfileMetrics], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for r in records:
            writer.writerow([r.profile_id, r.split, r.regime, repr(r.nmae), repr(r.nnse)])


def read_metrics_csv(path) -> list[ProfileMetrics]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != METRICS_HEADER:
            raise ValueError(f"unexpected metrics header: {header}")
        return [
            ProfileMetrics(int(pid), split, regime, float(v_nmae), float(v_nnse))
            for pid, split, regime, v_nmae, v_nnse in reader
        ]
