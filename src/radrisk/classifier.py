"""Class-weighted linear max-margin classifier (soft-margin hinge loss).

Training minimizes ``0.5 ||w||^2 + C * sum_i c_{y_i} hinge(y_i, w.x_i + b)``
with ``c_pos = s * n_neg / n_pos`` and ``c_neg = 1``. The bias is handled as
an extra all-ones (regularized) feature, which keeps the dual box-constrained:
``min 0.5 ||Z.T a||^2 - sum(a)`` over ``0 <= a_i <= C c_{y_i}``, with
``Z = y * X`` row-wise and ``w = Z.T a``. ``fit`` solves it by a Mehrotra
predictor-corrector primal-dual interior-point method (Mehrotra 1992), whose
Newton systems need one (d+1) x (d+1) Cholesky each through Sherman-Morrison-
Woodbury (Ferris & Munson 2002). After every step a crossover snaps the
samples that the multipliers put at a bound and solves the remaining face
exactly, at its numerical rank. A candidate is accepted once its
projected-gradient (KKT) residual is below ``tol``; otherwise the fit stops
with its best candidate after ``max_epochs`` iterations, or when a step
cannot stay strictly inside the box or is lost to rounding. The model records
the residual and the iteration count; the solve is deterministic. Feature columns are standardized to the training
mean/std inside ``fit`` and the parameters are stored on the model, so
scoring new data replays the exact transform.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
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
    max_epochs: int = 20000  # iteration cap of the interior-point solver
    tol: float = 1e-6  # a fit converged when its KKT residual is below this

    def __post_init__(self):
        for name, value in (("C", self.C), ("sensitivity weight", self.sensitivity_weight)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be a finite number > 0, got {value}")
        if math.isnan(self.threshold):
            raise ConfigError("threshold must be a number, got nan")
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
            "config": asdict(self.config),
            "kkt_residual": self.kkt_residual,
            "epochs_run": self.epochs_run,
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def load_model(path: str | Path) -> TrainedModel:
    """The model that :meth:`TrainedModel.save` wrote to ``path``; ``DataError`` for a file that is not one."""
    try:
        data = json.loads(Path(path).read_text())
        if data.get("format_version") != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format version {data.get('format_version')!r}")
        return TrainedModel(
            feature_names=list(data["feature_names"]),
            mu=np.asarray(data["mu"], dtype=np.float64),
            sigma=np.asarray(data["sigma"], dtype=np.float64),
            w=np.asarray(data["w"], dtype=np.float64),
            b=float(data["b"]),
            class_weights=tuple(data["class_weights"]),
            threshold=float(data["threshold"]),
            config=ClassifierConfig(**data["config"]),
            kkt_residual=float(data.get("kkt_residual", 0.0)),
            epochs_run=int(data.get("epochs_run", 0)),
        )
    except (ValueError, KeyError, TypeError, AttributeError, ConfigError) as exc:
        raise DataError(f"malformed model file {path}: {type(exc).__name__}: {exc}") from exc


def _crossover(Z, upper, a, face, tol: float, refine: bool):
    """The exact point of the face that an interior iterate names: ``(w, kkt_residual)``.

    ``face`` puts each coordinate at 0 (-1), at ``upper`` (+1) or free (0).
    The free ones F move by the minimum-norm solution of
    ``Z_F Z_F.T delta = -g_F``, from the SVD of ``Z_F`` at its numerical rank;
    this zeroes their gradient whenever the face is the optimal one,
    also where ``Z_F`` is rank-deficient. The point is projected onto the box.
    With ``refine``, a point whose residual is not below ``tol`` is corrected
    once, as in an active-set step: every coordinate whose projected gradient
    is nonzero, or that lies strictly inside the box, is freed, and the face is
    solved again.
    """
    a = np.where(face < 0, 0.0, np.where(face > 0, upper, a))
    free = face == 0
    for _ in range(1 + refine):
        if free.any():
            Zf = Z[free]
            U, sv, _ = np.linalg.svd(Zf, full_matrices=False)
            rank = int((sv > sv[0] * max(Zf.shape) * np.finfo(np.float64).eps).sum())
            U, sv = U[:, :rank], sv[:rank]
            a[free] -= U @ ((U.T @ (Zf @ (Z.T @ a) - 1.0)) / (sv * sv))
            a = np.clip(a, 0.0, upper)
        w = Z.T @ a
        g = Z @ w - 1.0
        # projected gradient: the KKT residual of the box-constrained dual
        pg = np.where(a == 0.0, np.minimum(g, 0.0), np.where(a == upper, np.maximum(g, 0.0), g))
        residual = float(np.abs(pg).max())
        if residual < tol:
            break
        free = (pg != 0.0) | ((a > 0.0) & (a < upper))
    return w, residual


def _solve_dual(Z, upper, max_iterations: int, tol: float):
    """``(w, kkt_residual, iterations)`` for ``min 0.5 ||Z.T a||^2 - sum(a)`` over ``0 <= a <= upper``.

    Mehrotra predictor-corrector primal-dual interior point, with multipliers
    ``s`` of ``a >= 0`` and ``r`` of ``a <= upper``. Each Newton system
    ``(D + Z Z.T) da = h`` (``D = s/a + r/(upper - a)``) is solved through
    Woodbury with one Cholesky of ``I + Z.T D^-1 Z``. After each step the
    crossover proposes an exact candidate on the face that the multipliers
    name: a coordinate is at 0 when ``s`` exceeds its distance to 0, and at
    ``upper`` when ``r`` exceeds its distance to ``upper``. A face named twice
    in a row that fails is refined once. The first candidate whose KKT
    residual is below ``tol`` is returned. Otherwise the best candidate is
    returned at the iteration cap, or as soon as a step cannot stay strictly
    inside the box or its direction is lost to rounding.
    """
    n, m = Z.shape
    # a small interior start: from upper / 2 the first gap grows with C, and the
    # fits of the planted cohort took ~5 more iterations
    a = np.minimum(0.5 * upper, 1.0 / m)
    w = Z.T @ a
    g = Z @ w - 1.0
    best_w, best_residual = w, float(np.abs(g).max())  # a is interior: its projected gradient is g
    s = np.maximum(g, 0.0) + 1.0
    r = np.maximum(-g, 0.0) + 1.0  # so the dual residual g - s + r starts at 0
    eye = np.eye(m)
    face = None
    for iterations in range(1, max_iterations + 1):
        v = upper - a
        x = np.stack([a, v, s, r])
        rd = g - s + r
        mu = float((a @ s + v @ r) / (2 * n))
        dinv = 1.0 / (s / a + r / v)
        ZD = Z * dinv[:, None]
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(eye + Z.T @ ZD))
        except np.linalg.LinAlgError:
            break
        M_inv = L_inv.T @ L_inv

        def newton(cs, cr):
            """Direction of (a, v, s, r) for s da + a ds = cs, -r da + v dr = cr, Z Z.T da - ds + dr = -rd,
            and the right-hand side ``h`` of its reduced system ``(D + Z Z.T) da = h``."""
            h = cs / a - cr / v - rd
            da = dinv * (h - Z @ (M_inv @ (ZD.T @ h)))
            return np.stack([da, -da, (cs - s * da) / a, (cr + r * da) / v]), h

        def max_step(dx):
            """Largest step in [0, 1] that keeps every entry of x + step * dx >= 0."""
            shrink = dx < 0.0
            return min(1.0, float((x[shrink] / -dx[shrink]).min())) if shrink.any() else 1.0

        dx, _ = newton(-a * s, -v * r)  # predictor: the affine-scaling direction
        aff = x + max_step(dx) * dx
        mu_aff = float((aff[0] @ aff[2] + aff[1] @ aff[3]) / (2 * n))
        target = mu * (mu_aff / mu) ** 3
        dx, h = newton(target - a * s - dx[0] * dx[2], target - v * r - dx[1] * dx[3])
        held = np.abs(dx[0] / dinv + Z @ (Z.T @ dx[0]) - h).max() < np.abs(h).max()
        step = 0.995 * max_step(dx)
        a_next = a + step * dx[0]
        # a direction that solves its system no better than 0 (lost to rounding) ends
        # the solve, like a step that cannot stay strictly inside the box
        if not (held and np.all(a_next > 0.0) and np.all(a_next < upper)):
            break
        a, s, r = a_next, s + step * dx[2], r + step * dx[3]
        g = Z @ (Z.T @ a) - 1.0
        last_face, face = face, np.where(s > a, -1, np.where(r > upper - a, 1, 0))
        w, residual = _crossover(Z, upper, a, face, tol, np.array_equal(face, last_face))
        if residual < best_residual:
            best_w, best_residual = w, residual
        if residual < tol:
            break
    return best_w, best_residual, iterations


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
    w, residual, iterations = _solve_dual(Z, upper, cfg.max_epochs, cfg.tol)

    return TrainedModel(
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
