"""Metrics, severity-level classification, ROC/AUC, and generalization splits.

Deterioration values are binned into four severity levels; a one-vs-rest
ROC per level is built from a bin-affinity score (negative distance of the
predicted value to the level's interval), which is monotone in how firmly
the regression output sits inside the level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SplitError


class MetricError(ValueError):
    """Metric inputs empty or malformed."""


class DomainError(ValueError):
    """Value outside the metric's domain."""


LEVELS = ("Healthy", "Good", "Severe", "VerySevere")
# half-open bins, lower edge inclusive
LEVEL_EDGES = ((0.0, 1.0), (1.0, 5.0), (5.0, 10.0), (10.0, float("inf")))


def regression_metrics(y, yhat) -> tuple[float, float, float]:
    """(MAE, MSE, RMSE); RMSE is the square root of the same accumulator."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise MetricError(f"length mismatch {y.shape} vs {yhat.shape}")
    if y.size == 0:
        raise MetricError("empty metric input")
    err = y - yhat
    mae = float(np.mean(np.abs(err)))
    mse = float(np.mean(err * err))
    return mae, mse, float(np.sqrt(mse))


def level_indices(values) -> np.ndarray:
    """Each value's index into LEVELS (NaN falls in the last level).

    Raises DomainError for a negative value.
    """
    values = np.asarray(values, dtype=np.float64)
    negative = values < 0
    if negative.any():
        raise DomainError(f"deterioration value must be >= 0, got {values[negative][0]}")
    return np.searchsorted([lo for lo, _ in LEVEL_EDGES], values, side="right") - 1


def level_affinities(yhat, class_index: int) -> np.ndarray:
    """Negative distance of each yhat to the class bin: 0.0 inside the bin,
    -0.0 on its upper edge."""
    lo, hi = LEVEL_EDGES[class_index]
    yhat = np.asarray(yhat, dtype=np.float64)
    out = np.zeros_like(yhat)
    outside = yhat < lo
    np.subtract(lo, yhat, out=out, where=outside)
    if hi != float("inf"):
        above = yhat >= hi
        np.subtract(yhat, hi, out=out, where=above)
        outside |= above
    return np.negative(out, out=out, where=outside)


def roc_curve(labels, scores):
    """(fpr, tpr, thresholds) with tied scores grouped at one threshold."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    labels = labels[order]
    distinct = np.flatnonzero(np.diff(scores)) if len(scores) > 1 else np.array([], int)
    idx = np.concatenate([distinct, [len(scores) - 1]])
    tps = np.cumsum(labels)[idx]
    fps = (idx + 1) - tps
    tps = np.concatenate([[0], tps])
    fps = np.concatenate([[0], fps])
    thresholds = np.concatenate([[np.inf], scores[idx]])
    n_pos, n_neg = tps[-1], fps[-1]
    tpr = tps / n_pos if n_pos else np.zeros_like(tps, dtype=float)
    fpr = fps / n_neg if n_neg else np.zeros_like(fps, dtype=float)
    return fpr, tpr, thresholds


def auc_from_curve(fpr, tpr) -> float:
    return float(np.trapezoid(tpr, fpr))


def level_roc_curves(true_values, predicted_values) -> dict[str, tuple]:
    """Per-level one-vs-rest (fpr, tpr, thresholds) from regression outputs.

    Levels lacking a positive or a negative example have no curve.
    """
    true_classes = level_indices(true_values)
    curves = {}
    for c, name in enumerate(LEVELS):
        labels = true_classes == c
        if labels.all() or not labels.any():
            continue
        curves[name] = roc_curve(labels, level_affinities(predicted_values, c))
    return curves


def roc_auc_ovr(true_values, predicted_values):
    """Per-class one-vs-rest AUC from regression outputs.

    Classes lacking a positive or a negative example get None instead of a
    made-up 0.5, so degenerate splits stay visible.
    """
    true_values = np.asarray(true_values, dtype=np.float64)
    if true_values.size == 0:
        raise MetricError("empty metric input")
    curves = level_roc_curves(true_values,
                              np.asarray(predicted_values, dtype=np.float64))
    return {name: auc_from_curve(*curves[name][:2]) if name in curves else None
            for name in LEVELS}


def confusion_counts(true_values, predicted_values) -> np.ndarray:
    """4x4 counts, rows true level, columns predicted level."""
    predicted = np.maximum(np.asarray(predicted_values, dtype=np.float64), 0.0)
    cells = level_indices(true_values) * len(LEVELS) + level_indices(predicted)
    return np.bincount(cells, minlength=len(LEVELS) ** 2).reshape(len(LEVELS), len(LEVELS))


@dataclass
class EvalReport:
    split: dict
    train_mae: float | None
    mae: float
    mse: float
    rmse: float
    auc: dict[str, float | None]
    confusion: list[list[int]]
    pairs: list[tuple[float, float]]  # (y, yhat) per evaluated node

    def to_dict(self) -> dict:
        return {"split": self.split, "train_mae": self.train_mae,
                "mae": self.mae, "mse": self.mse, "rmse": self.rmse,
                "auc": self.auc, "confusion": self.confusion,
                "pairs": [[float(a), float(b)] for a, b in self.pairs]}


def build_report(y, yhat, split_descriptor: dict, train_mae=None) -> EvalReport:
    mae, mse, rmse = regression_metrics(y, yhat)
    return EvalReport(split=split_descriptor, train_mae=train_mae,
                      mae=mae, mse=mse, rmse=rmse,
                      auc=roc_auc_ovr(y, yhat),
                      confusion=confusion_counts(y, yhat).tolist(),
                      pairs=list(zip(map(float, y), map(float, yhat))))


# ---------------------------------------------------------------------------
# Generalization splits


def generalization_split(records, axis: str, k: int, s: int):
    """Sorted-by-axis split of records: first k train, next s removed, rest test.

    Returns (train indices, test indices) as arrays; ties on the axis go to
    the lower index. A negative s would put ids on both sides.
    """
    if axis not in ("time", "longitude", "latitude"):
        raise SplitError(f"unknown axis {axis!r}")
    if s < 0:
        raise SplitError(f"gap s must be >= 0, got {s}")
    if not 0 < k < len(records) - s:
        raise SplitError(f"k = {k} and s = {s} leave no train or test data for n = {len(records)}")
    field = {"time": "collect_time", "longitude": "longitude_gcj",
             "latitude": "latitude_gcj"}[axis]
    order = np.argsort(records[field], kind="stable")
    return order[:k], order[k + s:]
