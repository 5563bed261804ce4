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


def classify_level(value: float) -> str:
    if value < 0:
        raise DomainError(f"deterioration value must be >= 0, got {value}")
    for name, (lo, hi) in zip(LEVELS, LEVEL_EDGES):
        if lo <= value < hi:
            return name
    return LEVELS[-1]


def level_index(value: float) -> int:
    return LEVELS.index(classify_level(value))


def level_affinity(yhat: float, class_index: int) -> float:
    """Negative distance of yhat to the class bin (0 inside the bin)."""
    lo, hi = LEVEL_EDGES[class_index]
    if yhat < lo:
        return -(lo - yhat)
    if hi != float("inf") and yhat >= hi:
        return -(yhat - hi)
    return 0.0


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


def roc_auc_ovr(true_values, predicted_values):
    """Per-class one-vs-rest AUC from regression outputs.

    Classes lacking a positive or a negative example get None instead of a
    made-up 0.5, so degenerate splits stay visible.
    """
    true_values = np.asarray(true_values, dtype=np.float64)
    predicted_values = np.asarray(predicted_values, dtype=np.float64)
    if true_values.size == 0:
        raise MetricError("empty metric input")
    true_classes = np.array([level_index(v) for v in true_values])
    out: dict[str, float | None] = {}
    for c, name in enumerate(LEVELS):
        labels = true_classes == c
        if labels.all() or not labels.any():
            out[name] = None
            continue
        scores = np.array([level_affinity(v, c) for v in predicted_values])
        fpr, tpr, _ = roc_curve(labels, scores)
        out[name] = auc_from_curve(fpr, tpr)
    return out


def confusion_counts(true_values, predicted_values) -> np.ndarray:
    """4x4 counts, rows true level, columns predicted level."""
    counts = np.zeros((len(LEVELS), len(LEVELS)), dtype=int)
    for t, p in zip(true_values, predicted_values):
        counts[level_index(t), level_index(max(p, 0.0))] += 1
    return counts


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


def generalization_split(nodes, axis: str, k: int, s: int):
    """Sorted-by-axis split: first k train, next s removed, rest test.

    Returns (train ids, test ids); ties on the axis break by node id.
    """
    if axis not in ("time", "longitude", "latitude"):
        raise SplitError(f"unknown axis {axis!r}")
    if k + s >= len(nodes):
        raise SplitError(f"k + s = {k + s} leaves no test data for n = {len(nodes)}")
    keys = {"time": lambda p: p.t_raw,
            "longitude": lambda p: p.coords[0],
            "latitude": lambda p: p.coords[1]}[axis]
    order = sorted(nodes, key=lambda p: (keys(p), p.node_id))
    train_ids = [p.node_id for p in order[:k]]
    test_ids = [p.node_id for p in order[k + s:]]
    return train_ids, test_ids


def reseed_noise_band(maes) -> float:
    """Spread (max - min) of a metric across reseeded but otherwise equal runs."""
    maes = list(maes)
    if not maes:
        raise MetricError("need at least one run")
    return max(maes) - min(maes)
