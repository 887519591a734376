import json

import numpy as np
import pytest

import oracles
from radrisk import ClassifierConfig, classifier, decision_scores, fit, load_model, predict
from radrisk.errors import ConfigError, DataError

from oracles import bf_svm_dual


def hand_instance():
    """Separable 4-point set: max-margin plane x1 = 0, w* = (1, 0), b* = 0."""
    X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    y = np.array([1, 1, 0, 0])
    return X, y, ["f1", "f2"]


def test_recovers_analytic_max_margin():
    X, y, names = hand_instance()
    model = fit(X, y, names, ClassifierConfig(C=100.0, sensitivity_weight=1.0, seed=0))
    # standardized coordinates scale x1 by 1/std = 1: std of [-1,1,...] is 1
    assert model.w[0] == pytest.approx(1.0, abs=1e-3)
    assert model.w[1] == pytest.approx(0.0, abs=1e-3)
    assert model.b == pytest.approx(0.0, abs=1e-3)
    assert model.kkt_residual < 1e-4
    assert np.array_equal(predict(model, X), y)


def _dual_problem(model, X, y):
    """The standardized, bias-augmented dual ``(Z, upper)`` that ``fit`` solved."""
    Xa = np.hstack([(X - model.mu) / model.sigma, np.ones((X.shape[0], 1))])
    ypm = np.where(y == 1, 1.0, -1.0)
    c_pos, c_neg = model.class_weights
    upper = model.config.C * np.where(y == 1, c_pos, c_neg)
    return ypm[:, None] * Xa, upper


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(55)
    for trial in range(60):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        if trial % 3 == 0:  # pull the classes apart: most samples end at 0, not at the bound
            X[y == 1] += 1.5
        cfg = ClassifierConfig(C=float(10 ** rng.uniform(-1, 2)),
                               sensitivity_weight=float(rng.uniform(0.5, 3.0)),
                               max_epochs=1_000_000, tol=1e-12)
        model = fit(X, y, [f"f{j}" for j in range(d)], cfg)
        assert model.kkt_residual < 1e-12, trial
        w = bf_svm_dual(*_dual_problem(model, X, y))
        assert np.allclose(model.w, w[:d], rtol=0.0, atol=1e-9), (trial, model.w, w)
        assert model.b == pytest.approx(w[d], rel=0.0, abs=1e-9), trial


def test_iteration_cap_and_config_validation():
    rng = np.random.default_rng(56)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] + rng.normal(size=30) > 0).astype(int)
    names = ["a", "b", "c"]
    capped = fit(X, y, names, ClassifierConfig(max_epochs=1))
    assert capped.epochs_run == 1
    assert capped.kkt_residual >= capped.config.tol
    full = fit(X, y, names, ClassifierConfig())
    assert 1 < full.epochs_run <= full.config.max_epochs
    assert full.kkt_residual < full.config.tol
    for bad in (0, -1, 1.5, True, "10", None):
        with pytest.raises(ConfigError, match="max_epochs"):
            ClassifierConfig(max_epochs=bad)
    for bad in (0, 0.0, -1e-6, float("nan"), float("inf"), True, "1e-6", None):
        with pytest.raises(ConfigError, match="tol"):
            ClassifierConfig(tol=bad)


def test_zero_training_error_separable():
    rng = np.random.default_rng(50)
    for trial in range(5):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(10, 40))
        w_true = rng.normal(size=d)
        w_true /= np.linalg.norm(w_true)
        X = rng.normal(size=(n, d))
        margin = X @ w_true
        # push points away from the plane to guarantee separability
        X = X + np.outer(np.sign(margin) * 0.8, w_true)
        y = (X @ w_true > 0).astype(int)
        if y.min() == y.max():
            continue
        model = fit(X, y, [f"f{j}" for j in range(d)], ClassifierConfig(C=1e4, seed=trial))
        assert np.array_equal(predict(model, X), y), trial


def test_sensitivity_weight_drives_sensitivity_first():
    rng = np.random.default_rng(51)
    n_neg, n_pos = 60, 6
    X = np.vstack([
        rng.normal(0.0, 1.0, size=(n_neg, 2)),
        rng.normal(1.0, 1.0, size=(n_pos, 2)),  # heavy overlap
    ])
    y = np.array([0] * n_neg + [1] * n_pos)
    names = ["a", "b"]
    sens, spec = {}, {}
    for s in (1.0, 30.0):
        model = fit(X, y, names, ClassifierConfig(C=1.0, sensitivity_weight=s, seed=0))
        pred = predict(model, X)
        sens[s] = ((pred == 1) & (y == 1)).sum() / (y == 1).sum()
        spec[s] = ((pred == 0) & (y == 0)).sum() / (y == 0).sum()
    assert sens[30.0] == 1.0
    assert sens[30.0] >= sens[1.0]
    assert spec[30.0] < 1.0  # specificity sacrificed before sensitivity


def test_duplication_with_rescaled_cost_keeps_boundary():
    X, y, names = hand_instance()
    base = fit(X, y, names, ClassifierConfig(C=10.0, sensitivity_weight=1.0, seed=0))
    X2 = np.vstack([X, X])
    y2 = np.concatenate([y, y])
    doubled = fit(X2, y2, names, ClassifierConfig(C=5.0, sensitivity_weight=1.0, seed=0))
    assert np.allclose(doubled.w, base.w, atol=1e-6)
    assert doubled.b == pytest.approx(base.b, abs=1e-6)


def test_bit_determinism():
    rng = np.random.default_rng(52)
    X = rng.normal(size=(30, 5))
    y = rng.integers(0, 2, size=30)
    y[0], y[1] = 0, 1
    names = [f"f{j}" for j in range(5)]
    cfg = ClassifierConfig(C=2.0, seed=1234)
    a = fit(X, y, names, cfg)
    b = fit(X.copy(), y.copy(), names, cfg)
    assert a.w.tobytes() == b.w.tobytes()
    assert a.b == b.b
    assert a.mu.tobytes() == b.mu.tobytes()


def test_standardization_and_score_replay():
    rng = np.random.default_rng(53)
    X = rng.normal(3.0, 2.5, size=(40, 4)) * np.array([1.0, 10.0, 0.1, 5.0])
    y = rng.integers(0, 2, size=40)
    y[:2] = [0, 1]
    names = [f"f{j}" for j in range(4)]
    model = fit(X, y, names, ClassifierConfig(seed=7))
    assert np.allclose(model.mu, X.mean(axis=0))
    assert np.allclose(model.sigma, X.std(axis=0))
    origin = model.mu.reshape(1, -1)
    assert decision_scores(model, origin)[0] == pytest.approx(model.b, abs=1e-12)


def test_constant_column_sigma_one():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0], [4.0, 5.0]])
    y = np.array([0, 0, 1, 1])
    model = fit(X, y, ["v", "const"], ClassifierConfig(seed=0))
    assert model.sigma[1] == 1.0
    assert np.isfinite(model.w).all()


def test_threshold_extremes():
    X, y, names = hand_instance()
    model = fit(X, y, names, ClassifierConfig(seed=0))
    assert predict(model, X, threshold=-np.inf).tolist() == [1, 1, 1, 1]
    assert predict(model, X, threshold=np.inf).tolist() == [0, 0, 0, 0]


def test_monotone_in_positive_weight_feature():
    X, y, names = hand_instance()
    model = fit(X, y, names, ClassifierConfig(seed=0))
    lo = decision_scores(model, np.array([[0.0, 0.0]]))[0]
    hi = decision_scores(model, np.array([[1.0, 0.0]]))[0]
    assert hi > lo


def test_prediction_invariance_under_feature_rescaling():
    # standardization absorbs any positive per-feature rescaling exactly
    rng = np.random.default_rng(54)
    X = rng.normal(size=(24, 3))
    w_true = np.array([1.0, -2.0, 0.5])
    X += np.outer(np.sign(X @ w_true) * 0.8, w_true / np.linalg.norm(w_true))
    y = (X @ w_true > 0).astype(int)
    names = ["a", "b", "c"]
    base = fit(X, y, names, ClassifierConfig(C=10.0, seed=3))
    scale = np.array([0.01, 7.5, 300.0])
    rescaled = fit(X * scale, y, names, ClassifierConfig(C=10.0, seed=3))
    assert np.array_equal(predict(base, X), predict(rescaled, X * scale))


def test_serialization_roundtrip(tmp_path):
    X, y, names = hand_instance()
    model = fit(X, y, names, ClassifierConfig(C=3.0, sensitivity_weight=1.5, seed=9))
    path = model.save(tmp_path / "model.json")
    back = load_model(path)
    assert back.feature_names == model.feature_names
    assert np.allclose(back.w, model.w)
    assert back.b == model.b
    assert back.class_weights == pytest.approx(model.class_weights)
    assert np.array_equal(predict(back, X), predict(model, X))
    assert back.save(tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_a_malformed_model_file_is_a_data_error(tmp_path):
    X, y, names = hand_instance()
    path = fit(X, y, names).save(tmp_path / "model.json")
    data = json.loads(path.read_text())
    configs = (data["config"] | {"kernel": "rbf"}, data["config"] | {"C": -1.0}, [1.0])
    for text in ("not json", '{"format_version": 1}', "[1, 2]", *(json.dumps(data | {"config": c}) for c in configs)):
        path.write_text(text)
        with pytest.raises(DataError, match="malformed model file"):
            load_model(path)


def test_errors():
    X = np.zeros((4, 2))
    with pytest.raises(DataError, match="both classes"):
        fit(X, np.zeros(4), ["a", "b"])
    with pytest.raises(DataError, match="non-finite"):
        fit(np.array([[np.nan, 1.0], [0.0, 1.0]]), np.array([0, 1]), ["a", "b"])
    model = fit(np.array([[0.0], [1.0]]), np.array([0, 1]), ["a"], ClassifierConfig(seed=0))
    with pytest.raises(DataError, match="names"):
        decision_scores(model, np.zeros((1, 1)), ["wrong"])
    with pytest.raises(DataError, match="width"):
        decision_scores(model, np.zeros((1, 3)))


def test_degenerate_faces_match_oracle():
    # duplicated rows and integer-valued columns: ties in the margins, faces
    # where Z_F is rank-deficient, and optimal duals that are not unique
    rng = np.random.default_rng(57)
    for trial in range(40):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(1, 4))
        X = rng.integers(-1, 2, size=(n, d)).astype(float)
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        copies = rng.integers(2, n, size=n // 2)
        sources = rng.integers(0, n, size=n // 2)
        X[copies] = X[sources]
        if trial % 2:  # exact duplicates; otherwise some copies carry the other label
            y[copies] = y[sources]
        cfg = ClassifierConfig(C=float(10 ** rng.uniform(-1, 2)),
                               sensitivity_weight=float(rng.uniform(0.5, 3.0)),
                               max_epochs=1_000_000, tol=1e-12)
        model = fit(X, y, [f"f{j}" for j in range(d)], cfg)
        assert model.kkt_residual < 1e-12, trial
        w = bf_svm_dual(*_dual_problem(model, X, y))
        assert np.allclose(model.w, w[:d], rtol=0.0, atol=1e-9), (trial, model.w, w)
        assert model.b == pytest.approx(w[d], rel=0.0, abs=1e-9), trial


def test_rank_deficient_face_certifies():
    # 4 columns on {0, 1, 2}: many samples share a row, so more samples sit on
    # the margin than the d + 1 = 5 columns of Z can pin down
    rng = np.random.default_rng(60)
    X = rng.integers(0, 3, size=(190, 4)).astype(float)
    y = (X @ np.array([1.0, -1.0, 0.5, 0.0]) + rng.normal(size=190) > 0.5).astype(int)
    model = fit(X, y, ["a", "b", "c", "d"], ClassifierConfig())
    assert model.kkt_residual < model.config.tol
    margins = np.where(y == 1, 1.0, -1.0) * decision_scores(model, X)
    assert int((np.abs(margins - 1.0) < 1e-8).sum()) > X.shape[1] + 1


def _noisy_problem(seed, n=190, d=20):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 2.0 * rng.normal(size=n) > 0.8).astype(int)  # not separable
    return X, y, [f"f{j}" for j in range(d)]


def test_interior_point_iteration_count():
    # an interior-point solve takes tens of iterations; a first-order method
    # takes thousands on this problem
    model = fit(*_noisy_problem(61), ClassifierConfig())
    assert model.kkt_residual < model.config.tol
    assert model.epochs_run <= 50


@pytest.mark.parametrize("C", [1e-4, 1e6, 1e8])
def test_extreme_C_ends_with_an_honest_fit(C):
    # at C = 1e8 the Newton directions are lost to rounding before the face is
    # certified: the solve must stop there and report, not run to max_epochs
    model = fit(*_noisy_problem(62), ClassifierConfig(C=C))
    assert np.isfinite(model.w).all() and np.isfinite(model.b)
    assert 0.0 <= model.kkt_residual < np.inf
    assert model.epochs_run <= 100


def _same_fit(a, b):
    same = [np.array_equal(a.w.view(np.int64), b.w.view(np.int64))]
    same += [np.float64(x).view(np.int64) == np.float64(y).view(np.int64)
             for x, y in ((a.b, b.b), (a.kkt_residual, b.kkt_residual))]
    return all(same) and a.epochs_run == b.epochs_run


@pytest.mark.parametrize("C", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("max_epochs", [2, 20000])
def test_fits_keep_the_bits_of_the_first_solver(monkeypatch, C, max_epochs):
    # the solver skips the predictor's system check, which the first one computed and threw away
    rng = np.random.default_rng(63)
    problems = [_noisy_problem(seed) for seed in (64, 65)]
    X, y, names = _noisy_problem(66, n=60, d=6)
    copies = rng.integers(0, 60, size=30)
    problems.append((np.vstack([X, X[copies]]), np.concatenate([y, y[copies]]), names))  # duplicated rows
    cfg = ClassifierConfig(C=C, max_epochs=max_epochs)
    got = [fit(*problem, cfg) for problem in problems]
    monkeypatch.setattr(classifier, "_solve_dual", oracles._solve_dual)
    for problem, model in zip(problems, got):
        assert _same_fit(model, fit(*problem, cfg))
