"""Per-profile accuracy metrics and distribution summaries.

NMAE normalizes mean absolute depth error by the dam height (the natural
length scale of a backwater profile); NNSE rescales the Nash-Sutcliffe
efficiency into (0, 1] so badly wrong models stay comparable.  Summaries
carry the mean (the headline number), box-plot percentiles, skewness, and
the full empirical CDF.  A set of P profiles is scored with row reductions
over (P, n_points) arrays; :func:`nmae` and :func:`nnse` are one row of the
same routine.
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
#  Row-wise metrics
# ---------------------------------------------------------------------- #


def _row_scores(preds: np.ndarray, trues: np.ndarray, z_d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """NMAE, NSE and the undefined-NSE mask of each row of two (P, n) arrays.

    Every value is a row reduction in one profile's operand order, so row k
    is bitwise what that profile alone gives.  A constant true row has no
    NSE; its entry is left to the mask, without a division warning.
    """
    z_d = np.asarray(z_d, dtype=float)
    if not (z_d > 0.0).all():
        raise ValueError("z_d must be positive")
    n = trues.shape[1]
    row_nmae = np.add.reduce(np.abs(trues - preds), axis=1) / (n * z_d)
    denom = np.add.reduce((trues - trues.mean(axis=1, keepdims=True)) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        row_nse = 1.0 - np.add.reduce((trues - preds) ** 2, axis=1) / denom
    return row_nmae, row_nse, denom == 0.0


def _one_row(pred, true) -> tuple[np.ndarray, np.ndarray]:
    """A single profile pair as the (1, n) rows of :func:`_row_scores`."""
    pred = np.asarray(pred, dtype=float)
    true = np.asarray(true, dtype=float)
    if pred.shape != true.shape:
        raise ValueError(f"profile shapes differ: {pred.shape} vs {true.shape}")
    return pred.reshape(1, -1), true.reshape(1, -1)


def nmae(pred, true, z_d: float) -> float:
    """Mean absolute error normalized by the dam height."""
    return float(_row_scores(*_one_row(pred, true), z_d)[0][0])


def nse(pred, true) -> float:
    """Nash-Sutcliffe efficiency against the true profile's own mean."""
    _, value, undefined = _row_scores(*_one_row(pred, true), 1.0)
    if undefined[0]:
        raise UndefinedMetricError("NSE is undefined for a constant true profile")
    return float(value[0])


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


def _truths(profiles) -> np.ndarray:
    """The profiles' true depths as one (P, n_points) array."""
    return np.stack([prof.depths for prof in profiles])


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
    z_d = [prof.scenario.z_d for prof in profiles]
    scores_nmae, scores_nse, undefined = _row_scores(preds, _truths(profiles), z_d)
    scores_nnse = 1.0 / (2.0 - scores_nse)
    records = [
        ProfileMetrics(int(pid), split, prof.regime, score_nmae, score_nnse)
        for pid, prof, score_nmae, score_nnse, skip in zip(
            ids, profiles, scores_nmae.tolist(), scores_nnse.tolist(), undefined.tolist()
        )
        if not skip
    ]
    if not records:
        raise ValueError("no profiles could be evaluated")
    return SetEvaluation(
        records=records,
        nmae_summary=summarize([r.nmae for r in records]),
        nnse_summary=summarize([r.nnse for r in records]),
        excluded=int(undefined.sum()),
    )


def per_station_mae(model, profiles) -> np.ndarray:
    """Mean absolute depth error per station index (error-growth curve).

    ``model`` is a TrainedModel or a prediction array, as in :func:`evaluate_set`.
    """
    preds = _predictions(model, profiles)
    # a reduction over the leading axis adds the rows in order, one at a time
    return np.add.reduce(np.abs(preds - _truths(profiles)), axis=0) / len(profiles)


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
    """Read a file written by :func:`write_metrics_csv`; a ``ValueError`` names a bad row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != METRICS_HEADER:
            raise ValueError(f"unexpected metrics header in {path}: {header}")
        records = []
        for k, row in enumerate(reader, start=1):
            try:
                pid, split, regime, v_nmae, v_nnse = row
                records.append(ProfileMetrics(int(pid), split, regime, float(v_nmae), float(v_nnse)))
            except ValueError as exc:
                raise ValueError(f"metrics file {path} row {k}: {exc}") from exc
        return records
