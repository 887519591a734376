"""Monte-Carlo cross-validation with lesion-grouped stratified splits.

Every repeat draws a fresh split where all samples of a lesion land wholly in
train or test (stratified on the lesion-level "ever high-risk" flag), fits the
feature selection and the classifier on the training fold only, and scores the
test fold. The report carries per-repeat AUCs, the mean/std AUC, a pooled
confusion at the decision threshold, per-sample out-of-fold mean scores, a
leakage guard (count of lesions straddling train/test, asserted zero), how many
classifier fits did not reach the KKT tolerance, the largest KKT residual of
any fit, and the largest number of solver iterations any fit took.

A repeat does not copy its folds: :func:`select_features`, the one selection
step that the global (leaky) selection and the ``select`` and ``train``
commands share, takes the fold's rows of ``X`` and ``y`` into the one matrix it
centers, and the fit and the test scores read only the picked columns of their
rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .. import classifier as clf
from ..errors import ConfigError, DataError
from ..pipeline import Dataset, parallel_map
from ..selection import SelectionResult, mrmr_select, selection_cap
from .roc import confusion_at, roc_curve

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CvConfig:
    repeats: int = 100
    test_frac: float = 1.0 / 3.0
    seed: int = 0
    threads: int = 1
    per_samples: int = 10  # selection cap = n_train // per_samples
    per_fold: bool = True  # False = one global (leaky) selection before CV

    def __post_init__(self):
        if not 0.0 < self.test_frac < 1.0:
            raise ConfigError(f"test_frac must be in (0, 1), got {self.test_frac}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.per_samples < 1:
            raise ConfigError(f"per_samples must be >= 1, got {self.per_samples}")


@dataclass
class CvReport:
    set_id: int
    aucs: list[float]
    mean_auc: float
    std_auc: float
    pooled_auc: float
    repeat_seeds: list[int]
    confusion: dict[str, int]
    oof_scores: np.ndarray
    oof_counts: np.ndarray
    straddle_counts: list[int]
    nonconverged_fits: int  # fits whose KKT residual did not fall below the classifier's tol
    max_kkt_residual: float
    max_solver_iterations: int  # the largest epochs_run of the fits
    selected_first_repeat: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "set_id": self.set_id,
            "repeats": len(self.aucs),
            "mean_auc": self.mean_auc,
            "std_auc": self.std_auc,
            "pooled_auc": self.pooled_auc,
            "aucs": self.aucs,
            "repeat_seeds": self.repeat_seeds,
            "confusion": self.confusion,
            "straddle_counts": self.straddle_counts,
            "nonconverged_fits": self.nonconverged_fits,
            "max_kkt_residual": self.max_kkt_residual,
            "max_solver_iterations": self.max_solver_iterations,
            "selected_first_repeat": self.selected_first_repeat,
        }


def _lesion_table(dataset: Dataset):
    """Each sample's lesion, as an index into its lesions in order of first appearance, and
    whether each lesion is ever HRM."""
    index: dict[str, int] = {}
    lesion_of = np.asarray([index.setdefault(lid, len(index)) for lid in dataset.lesion_ids], dtype=np.intp)
    ever_hrm = np.zeros(len(index), dtype=bool)
    ever_hrm[lesion_of[dataset.y == 1]] = True
    return lesion_of, ever_hrm


def _split_lesions(flags, test_frac, rng):
    """Which lesions go to the test fold: ``test_frac`` of each stratum of ``flags``, rounded, but at
    least one lesion and at most all but one.

    With >= 2 lesions in each stratum, as :func:`monte_carlo_cv` requires, each fold then holds a
    flagged lesion and an unflagged one. Stratified on the ever-HRM flag, so on any grouping of the
    samples, that is an HRM sample and an LRM sample in each fold: no split needs a second draw.
    """
    test = np.zeros(flags.size, dtype=bool)
    for flag in (True, False):
        stratum = np.flatnonzero(flags == flag)
        n_test = int(round(test_frac * stratum.size))
        n_test = min(max(n_test, 1), stratum.size - 1)
        order = rng.permutation(stratum.size)
        test[stratum[order[:n_test]]] = True
    return test


def select_features(dataset: Dataset, per_samples: int = 10, rows=None) -> SelectionResult:
    """MRMR over the samples in ``rows`` (every sample when None), capped at one feature per
    ``per_samples`` of them."""
    n = dataset.n_samples if rows is None else len(rows)
    return mrmr_select(dataset.X, dataset.y, selection_cap(n, per_samples), dataset.feature_names, rows)


def _one_repeat(dataset: Dataset, lesion_of, flags, seed: int, cv_cfg: CvConfig, clf_cfg, global_selection):
    """One split, fit and scoring. Returns the AUC, the test fold's sample indices (ascending) and
    scores, the straddle count, the selected names, the fit's KKT residual and its iterations."""
    in_test = _split_lesions(flags, cv_cfg.test_frac, np.random.default_rng(seed))[lesion_of]
    y_train, y_test = dataset.y[~in_test], dataset.y[in_test]

    straddle = int(np.intersect1d(lesion_of[in_test], lesion_of[~in_test]).size)

    train, test = np.flatnonzero(~in_test), np.flatnonzero(in_test)
    if global_selection is not None:
        selection = global_selection
    else:
        selection = select_features(dataset, cv_cfg.per_samples, train)
    cols = selection.indices
    model = clf.fit(dataset.X[np.ix_(train, cols)], y_train, selection.selected, clf_cfg)
    scores = clf.decision_scores(model, dataset.X[np.ix_(test, cols)])
    auc_value = roc_curve(scores, y_test).auc
    return (auc_value, test, scores, straddle, selection.selected, model.kkt_residual, model.epochs_run)


def monte_carlo_cv(
    dataset: Dataset,
    cv_cfg: CvConfig = CvConfig(),
    clf_cfg: clf.ClassifierConfig = clf.ClassifierConfig(),
) -> CvReport:
    """Repeated lesion-grouped stratified train/test evaluation of one feature set."""
    lesion_of, flags = _lesion_table(dataset)
    if flags.sum() < 2 or (~flags).sum() < 2:
        raise DataError(
            f"need >= 2 lesions per class, got {int(flags.sum())} ever-HRM / {int((~flags).sum())} LRM"
        )

    global_selection = None if cv_cfg.per_fold else select_features(dataset, cv_cfg.per_samples)

    master = np.random.default_rng(cv_cfg.seed)
    repeat_seeds = [int(s) for s in master.integers(0, 2**31 - 1, size=cv_cfg.repeats)]

    def job(seed):
        return _one_repeat(dataset, lesion_of, flags, seed, cv_cfg, clf_cfg, global_selection)

    results = parallel_map(job, repeat_seeds, cv_cfg.threads)

    aucs, tests, scores, straddles, selected, residuals, iterations = zip(*results)
    n = dataset.n_samples
    test_idx = np.concatenate(tests)
    pooled_scores = np.concatenate(scores)
    pooled_labels = dataset.y[test_idx]
    # bincount adds in the order of its input: each sample's scores in repeat order, as a running sum
    oof_sum = np.bincount(test_idx, weights=pooled_scores, minlength=n)
    oof_counts = np.bincount(test_idx, minlength=n)

    nonconverged = int(np.count_nonzero(~(np.asarray(residuals) < clf_cfg.tol)))  # a NaN residual counts
    if nonconverged:
        log.warning("set %d: %d of %d classifier fits did not reach the KKT tolerance (iteration cap %d): "
                    "KKT residual up to %.3g (tol %g)", dataset.set_id, nonconverged, len(residuals),
                    clf_cfg.max_epochs, max(residuals), clf_cfg.tol)
    oof = np.divide(oof_sum, oof_counts, out=np.zeros(n), where=oof_counts > 0)
    pooled = roc_curve(pooled_scores, pooled_labels).auc
    return CvReport(
        set_id=dataset.set_id,
        aucs=list(aucs),
        mean_auc=float(np.mean(aucs)),
        std_auc=float(np.std(aucs)),
        pooled_auc=float(pooled),
        repeat_seeds=repeat_seeds,
        confusion=confusion_at(pooled_scores, pooled_labels, clf_cfg.threshold),
        oof_scores=oof,
        oof_counts=oof_counts,
        straddle_counts=list(straddles),
        nonconverged_fits=nonconverged,
        max_kkt_residual=max(residuals),
        max_solver_iterations=max(iterations),
        selected_first_repeat=list(selected[0]),
    )
