"""Class-weighted linear max-margin classifier (soft-margin hinge loss).

Training minimizes ``0.5 ||w||^2 + C * sum_i c_{y_i} hinge(y_i, w.x_i + b)``
with ``c_pos = s * n_neg / n_pos`` and ``c_neg = 1``. The bias is handled as
an extra all-ones (regularized) feature, which keeps the dual box-constrained:
``min 0.5 ||Z.T a||^2 - sum(a)`` over ``0 <= a_i <= C c_{y_i}``, with
``Z = y * X`` row-wise and ``w = Z.T a``. ``fit`` solves it by projected
accelerated gradient (FISTA, Beck & Teboulle 2009) with adaptive restart
(O'Donoghue & Candes 2015), deterministic and without a per-sample loop, until
the projected-gradient (KKT) residual is below ``tol`` or ``max_epochs``
iterations have run; the model records both. Feature columns are standardized
to the training mean/std inside ``fit`` and the parameters are stored on the
model, so scoring new data replays the exact transform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ClassifierConfig:
    C: float = 1.0
    sensitivity_weight: float = 2.0
    threshold: float = 0.0
    seed: int = 0  # kept so saved models and callers still load; the solver is deterministic
    max_epochs: int = 20000  # iteration cap of the solver
    tol: float = 1e-6  # a fit converged when its KKT residual is below this

    def __post_init__(self):
        if self.C <= 0:
            raise ConfigError(f"C must be > 0, got {self.C}")
        if self.sensitivity_weight <= 0:
            raise ConfigError(f"sensitivity weight must be > 0, got {self.sensitivity_weight}")
        if isinstance(self.max_epochs, bool) or not isinstance(self.max_epochs, int) or self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be an integer >= 1, got {self.max_epochs!r}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, (int, float)) or not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be a finite number > 0, got {self.tol!r}")


@dataclass
class TrainedModel:
    feature_names: list[str]
    mu: np.ndarray
    sigma: np.ndarray
    w: np.ndarray
    b: float
    class_weights: tuple[float, float]  # (c_pos, c_neg)
    threshold: float
    config: ClassifierConfig
    kkt_residual: float = 0.0
    epochs_run: int = 0
    training_scores: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "feature_names": list(self.feature_names),
            "mu": self.mu.tolist(),
            "sigma": self.sigma.tolist(),
            "w": self.w.tolist(),
            "b": self.b,
            "class_weights": list(self.class_weights),
            "threshold": self.threshold,
            "config": {
                "C": self.config.C,
                "sensitivity_weight": self.config.sensitivity_weight,
                "threshold": self.config.threshold,
                "seed": self.config.seed,
                "max_epochs": self.config.max_epochs,
                "tol": self.config.tol,
            },
            "kkt_residual": self.kkt_residual,
            "epochs_run": self.epochs_run,
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def load_model(path: str | Path) -> TrainedModel:
    data = json.loads(Path(path).read_text())
    if data.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {data.get('format_version')!r}")
    cfg = ClassifierConfig(**data["config"])
    return TrainedModel(
        feature_names=list(data["feature_names"]),
        mu=np.asarray(data["mu"], dtype=np.float64),
        sigma=np.asarray(data["sigma"], dtype=np.float64),
        w=np.asarray(data["w"], dtype=np.float64),
        b=float(data["b"]),
        class_weights=tuple(data["class_weights"]),
        threshold=float(data["threshold"]),
        config=cfg,
        kkt_residual=float(data.get("kkt_residual", 0.0)),
        epochs_run=int(data.get("epochs_run", 0)),
    )


def fit(X, y, names: list[str], cfg: ClassifierConfig = ClassifierConfig()) -> TrainedModel:
    """Train on a (samples x features) matrix with 0/1 labels (1 = positive class)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DataError(f"X {X.shape} and y {y.shape} disagree")
    if len(names) != X.shape[1]:
        raise DataError("feature names must match the matrix width")
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite feature values in training matrix")
    classes = np.unique(y)
    if classes.size != 2:
        raise DataError(f"training labels must contain both classes, got {classes.tolist()}")

    n, d = X.shape
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma == 0.0, 1.0, sigma)
    Xs = (X - mu) / sigma
    Xa = np.hstack([Xs, np.ones((n, 1))])  # regularized bias feature

    ypm = np.where(y == 1, 1.0, -1.0)
    n_pos = int((ypm > 0).sum())
    n_neg = n - n_pos
    c_pos = cfg.sensitivity_weight * n_neg / n_pos
    c_neg = 1.0
    upper = cfg.C * np.where(ypm > 0, c_pos, c_neg)

    # dual: min 0.5 ||Z.T a||^2 - sum(a) over 0 <= a <= upper, with w = Z.T a
    Z = ypm[:, None] * Xa
    gram = Z.T @ Z if d + 1 <= n else Z @ Z.T  # same nonzero spectrum, smaller side
    step = 1.0 / np.linalg.eigvalsh(gram)[-1]  # 1 / Lipschitz constant of the gradient
    alpha = np.zeros(n)
    grad = np.full(n, -1.0)
    v, grad_v = alpha, grad
    t = 1.0
    for iterations in range(1, cfg.max_epochs + 1):
        new_alpha = np.clip(v - step * grad_v, 0.0, upper)
        w = Z.T @ new_alpha
        new_grad = Z @ w - 1.0
        # projected gradient: the KKT residual of the box-constrained dual
        pg = np.where(new_alpha == 0.0, np.minimum(new_grad, 0.0),
                      np.where(new_alpha == upper, np.maximum(new_grad, 0.0), new_grad))
        residual = float(np.abs(pg).max())
        if residual < cfg.tol:
            break
        if (v - new_alpha) @ (new_alpha - alpha) > 0.0:  # momentum points uphill: restart
            t, v, grad_v = 1.0, new_alpha, new_grad
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            t = t_next
            # the gradient is affine in alpha, so at the extrapolated point it
            # is the same combination of the last two gradients
            v = new_alpha + beta * (new_alpha - alpha)
            grad_v = new_grad + beta * (new_grad - grad)
        alpha, grad = new_alpha, new_grad

    model = TrainedModel(
        feature_names=list(names),
        mu=mu,
        sigma=sigma,
        w=w[:d].copy(),
        b=float(w[d]),
        class_weights=(c_pos, c_neg),
        threshold=cfg.threshold,
        config=cfg,
        kkt_residual=residual,
        epochs_run=iterations,
    )
    model.training_scores = Xs @ model.w + model.b
    return model


def decision_scores(model: TrainedModel, X, names: list[str] | None = None) -> np.ndarray:
    """Signed margins ``w . standardized(x) + b`` for each row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.w.shape[0]:
        raise DataError(f"matrix width {X.shape[1] if X.ndim == 2 else '?'} does not match model")
    if names is not None and list(names) != list(model.feature_names):
        raise DataError("feature names do not match the trained model")
    Xs = (X - model.mu) / model.sigma
    return Xs @ model.w + model.b


def predict(model: TrainedModel, X, names: list[str] | None = None, threshold: float | None = None) -> np.ndarray:
    """1 (positive / high-risk) where the decision score reaches the threshold."""
    theta = model.threshold if threshold is None else threshold
    return (decision_scores(model, X, names) >= theta).astype(np.int64)
