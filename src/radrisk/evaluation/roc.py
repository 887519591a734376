"""ROC curves, each with its AUC, with grouped tie handling.

The curve is built by a descending-threshold sweep where samples sharing a
score enter together, so the AUC (trapezoidal, :attr:`RocCurve.auc`) equals
the Mann-Whitney pair statistic with half credit for score ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_curve(scores, labels) -> RocCurve:
    """ROC over 0/1 labels (1 = positive); requires both classes present."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError(f"scores {scores.shape} and labels {labels.shape} disagree")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes present")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    p = pos[order]
    # group indices where the score strictly drops
    boundaries = np.nonzero(np.diff(s) != 0.0)[0]
    idx = np.concatenate([boundaries, [s.size - 1]])
    tp = np.cumsum(p)[idx].astype(np.float64)
    fp = (idx + 1) - tp
    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], fp / n_neg])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr, tpr, auc)


def confusion_at(scores, labels, threshold: float) -> dict[str, int]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= threshold
    pos = labels == 1
    return {
        "tp": int((pred & pos).sum()),
        "fp": int((pred & ~pos).sum()),
        "tn": int((~pred & ~pos).sum()),
        "fn": int((~pred & pos).sum()),
    }
