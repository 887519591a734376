"""Pearson correlation and greedy minimum-redundancy feature selection.

The greedy criterion is the difference form: at each step pick the unselected
feature maximizing ``|r(f, label)| - mean over selected s of |r(f, s)|``; the
first pick maximizes ``|r(f, label)|`` alone. Ties break on the
lexicographically smallest feature name. Selection stops at the cap, or once
every remaining score is non-positive (after at least one pick).

Every correlation goes through one kernel over a C-ordered matrix centered
once. Each column's r is one ``einsum`` contraction that accumulates row by
row, never a BLAS product, so bit-identical columns get bit-identical r and tie
exactly, and a column's r does not depend on the other columns or on the
layout of the input. A constant column has r = 0 instead of failing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError


def _centered(X: np.ndarray):
    """Center the columns once: (centered matrix, column norms, constant mask).

    Constancy is tested exactly: the float mean of a constant column is not
    exact, so its norm need not be 0. The matrix is made C-ordered first: the
    column sums of an F-ordered matrix are pairwise and would move r in its
    last bits.
    """
    X = np.ascontiguousarray(X)
    Xc = X - X.mean(axis=0)
    norm = np.sqrt((Xc**2).sum(axis=0))
    constant = np.all(X == X[0], axis=0) | (norm == 0.0)
    return Xc, norm, constant


def _corr(Xc: np.ndarray, norm: np.ndarray, constant: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson r of every centered column with ``y``; 0 where either side is constant.

    On the C-ordered ``Xc`` the contraction adds ``Xc[i, j] * yc[i]`` into each
    column's sum row by row, with no n x d temporary.
    """
    yc, yn, y_constant = _centered(y[:, None])
    r = np.zeros(Xc.shape[1])
    if not y_constant[0]:
        np.divide(np.einsum("ij,i->j", Xc, yc[:, 0]), norm * yn, out=r, where=~constant)
    return r


def pearson(x, y) -> float:
    """Pearson linear correlation; 0 by convention when either vector is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"pearson needs two equal-length vectors, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise DataError(f"pearson needs n >= 2 samples, got {x.size}")
    return float(_corr(*_centered(x[:, None]), y)[0])


def selection_cap(n_samples: int, per: int = 10) -> int:
    """One feature per ``per`` samples, never below 1."""
    if per < 1:
        raise ConfigError(f"per_samples must be >= 1, got {per}")
    return max(1, n_samples // per)


@dataclass(frozen=True)
class CorrelationReport:
    """Per-feature correlation to the label, ranked by |r| (descending)."""

    names: list[str]
    r: np.ndarray
    degenerate: np.ndarray

    def ranked(self) -> list[tuple[str, float]]:
        order = sorted(range(len(self.names)), key=lambda k: (-abs(float(self.r[k])), self.names[k]))
        return [(self.names[k], float(self.r[k])) for k in order]


def correlation_report(X: np.ndarray, y, names: list[str]) -> CorrelationReport:
    Xc, norm, constant = _centered(np.asarray(X, dtype=np.float64))
    r = _corr(Xc, norm, constant, np.asarray(y, dtype=np.float64))
    return CorrelationReport(list(names), r, constant)


@dataclass(frozen=True)
class SelectionStep:
    name: str
    relevance: float
    redundancy: float
    score: float


@dataclass(frozen=True)
class SelectionResult:
    selected: list[str]
    indices: list[int]  # the column of each selected name, in pick order
    trace: list[SelectionStep]
    cap: int

    def to_dict(self) -> dict:
        return {
            "cap": self.cap,
            "selected": list(self.selected),
            "trace": [asdict(step) for step in self.trace],
        }


def mrmr_select(X, y, k: int, names: list[str] | None = None) -> SelectionResult:
    """Greedy relevance-minus-redundancy selection of at most ``k`` features."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise DataError(f"feature matrix must be nonempty 2D, got shape {X.shape}")
    if k < 1:
        raise ConfigError(f"selection cap must be >= 1, got {k}")
    n, d = X.shape
    if n < 2:
        raise DataError(f"selection needs >= 2 samples, got {n}")
    y = np.asarray(y, dtype=np.float64)
    if names is None:
        names = [f"f{k:06d}" for k in range(d)]
    if len(names) != d or len(set(names)) != d:
        raise DataError("feature names must be unique and match the matrix width")

    Xc, norm, constant = _centered(X)
    relevance = np.abs(_corr(Xc, norm, constant, y))
    redundancy_sum = np.zeros(d)
    # scores read in name order: the first maximum is the smallest name
    by_name = np.array(sorted(range(d), key=names.__getitem__))
    picked = np.zeros(d, dtype=bool)
    selected: list[int] = []
    trace: list[SelectionStep] = []

    for step in range(min(k, d)):
        if step:
            redundancy_sum += np.abs(_corr(Xc, norm, constant, X[:, selected[-1]]))
        redund = redundancy_sum / max(step, 1)
        scores = np.where(picked, -np.inf, relevance - redund)
        best = int(by_name[np.argmax(scores[by_name])])
        if step and scores[best] <= 0.0:
            break
        selected.append(best)
        picked[best] = True
        trace.append(SelectionStep(names[best], float(relevance[best]), float(redund[best]), float(scores[best])))

    return SelectionResult([names[s] for s in selected], selected, trace, k)
