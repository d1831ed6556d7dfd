"""Per-profile accuracy metrics and distribution summaries.

NMAE normalizes mean absolute depth error by the dam height (the natural
length scale of a backwater profile); NNSE rescales the Nash-Sutcliffe
efficiency into (0, 1] so badly wrong models stay comparable.  A set of P
profiles is scored with row reductions over (P, n_points) arrays, so row k
is bitwise that profile scored alone.  A summary carries the mean (the
headline number), box-plot percentiles and skewness; :func:`evaluate_set`
builds a split's ``summary.json`` object once, and :func:`empirical_cdf`
gives a sample's CDF on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SPLIT_NAMES, _read_csv, _write_csv
from .models import TrainedModel, predict
from .solver import MIXED, SUBCRITICAL


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


# ---------------------------------------------------------------------- #
#  Distribution summaries
# ---------------------------------------------------------------------- #


def summarize(values) -> dict:
    """The mean (the headline number), box percentiles and skewness of a
    sample: the object a run's ``summary.json`` stores per metric."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot summarize an empty sample")
    p10, p25, p50, p75, p90 = np.percentile(values, [10, 25, 50, 75, 90]).tolist()
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    skew = float(np.mean(centered**3) / m2**1.5) if m2 > 0.0 else 0.0
    return {"mean": float(values.mean()), "p10": p10, "p25": p25, "p50": p50, "p75": p75, "p90": p90,
            "skewness": skew}


def empirical_cdf(values) -> tuple[np.ndarray, np.ndarray]:
    """The sorted sample and the cumulative frequency of each of its values."""
    values = np.sort(np.asarray(values, dtype=float))
    return values, np.arange(1, values.size + 1) / values.size


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
    """A split's per-profile records, its ``summary.json`` object,
    ``{"nmae": summary, "nnse": summary, "excluded": count}`` (plus an ``int``
    model's ``clamped``/``capped`` counts), and the (P, n_points) predictions scored."""

    records: list[ProfileMetrics]
    summary: dict
    preds: np.ndarray

    @property
    def excluded(self) -> int:
        return self.summary["excluded"]


def _predictions(model, profiles) -> tuple[np.ndarray, dict]:
    """The (P, n_points) predictions for ``profiles``, a model's or a given array,
    and the floor and cap hits of an ``int`` model's march (else no counts)."""
    if not profiles:
        raise ValueError("need at least one profile")
    if isinstance(model, TrainedModel):
        if any(prof.grid != model.grid for prof in profiles):
            raise ValueError("evaluation profiles must share the model grid")
        hits = {"clamped": 0, "capped": 0} if model.spec.arch == "int" else {}
        return predict(model, [prof.scenario for prof in profiles], counters=hits), hits
    pred = np.asarray(model, dtype=float)
    expected = (len(profiles), profiles[0].grid.n_points)
    if pred.shape != expected:
        raise ValueError(f"prediction array has shape {pred.shape}, expected {expected}")
    return pred, {}


def _truths(profiles) -> np.ndarray:
    """The profiles' true depths as one (P, n_points) array."""
    return np.stack([prof.depths for prof in profiles])


def evaluate_set(model, profiles, ids=None, split: str = "") -> SetEvaluation:
    """Score every profile's prediction; summaries over the whole set.

    ``model`` is a TrainedModel (one :func:`~.models.predict` call, whose
    ``int`` floor and cap hits the summary adds) or a (P, n_points) prediction
    array in profile order, e.g. an exact oracle.  ``ids`` holds one id per
    profile.  Profiles with undefined metrics are counted in ``excluded``.
    """
    if ids is None:
        ids = range(len(profiles))
    if len(ids) != len(profiles):
        raise ValueError(f"{len(ids)} ids for {len(profiles)} profiles")
    preds, hits = _predictions(model, profiles)
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
    summary = {"nmae": summarize([r.nmae for r in records]), "nnse": summarize([r.nnse for r in records]),
               "excluded": int(undefined.sum()), **hits}
    return SetEvaluation(records, summary, preds)


def per_station_mae(model, profiles) -> np.ndarray:
    """Mean absolute depth error per station index (error-growth curve).

    ``model`` is a TrainedModel or a prediction array, as in :func:`evaluate_set`.
    """
    preds, _ = _predictions(model, profiles)
    # a reduction over the leading axis adds the rows in order, one at a time
    return np.add.reduce(np.abs(preds - _truths(profiles)), axis=0) / len(profiles)


# ---------------------------------------------------------------------- #
#  Results CSV
# ---------------------------------------------------------------------- #

METRICS_HEADER = ("profile_id", "split", "regime", "nmae", "nnse")


def write_metrics_csv(records: list[ProfileMetrics], path) -> None:
    _write_csv(path, METRICS_HEADER, ((r.profile_id, r.split, r.regime, r.nmae, r.nnse) for r in records))


def _metrics_row(row: list[str]) -> ProfileMetrics:
    pid, split, regime, v_nmae, v_nnse = row
    splits = (*SPLIT_NAMES, "extrapolation")
    if split not in splits:
        raise ValueError(f"split {split!r} is not one of {splits}")
    if regime not in (SUBCRITICAL, MIXED):
        raise ValueError(f"regime {regime!r} is not {SUBCRITICAL!r} or {MIXED!r}")
    return ProfileMetrics(int(pid), split, regime, float(v_nmae), float(v_nnse))


def read_metrics_csv(path) -> list[ProfileMetrics]:
    """Read a file written by :func:`write_metrics_csv`; a ``ValueError`` names
    a bad row, e.g. one whose split or regime is unknown."""
    return _read_csv(path, METRICS_HEADER, "metrics file", _metrics_row)
