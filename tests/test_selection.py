import numpy as np
import pytest

from radrisk import (
    CvConfig,
    correlation_report,
    mrmr_select,
    pearson,
    selection_cap,
)
from radrisk import selection
from radrisk.errors import ConfigError, DataError
from radrisk.selection import _centered, _corr
from helpers import traced_peak
from oracles import bf_corr_elementwise, bf_mrmr, bf_pearson, subtracted_centered


def test_pearson_hand_values():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    # covariance 4.0 over sqrt(5) * sqrt(5)
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_degenerate_convention():
    assert pearson([2, 2, 2], [1, 2, 3]) == 0.0


def test_pearson_errors():
    with pytest.raises(DataError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(DataError):
        pearson([1], [1])


def test_pearson_properties_random():
    rng = np.random.default_rng(40)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        r = pearson(x, y)
        assert abs(r) <= 1.0 + 1e-12
        assert r == pytest.approx(pearson(y, x), abs=1e-12)
        assert r == pytest.approx(bf_pearson(x.tolist(), y.tolist()), abs=1e-12)
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.normal())
        assert pearson(a * x + b, y) == pytest.approx(r, abs=1e-10)
        assert pearson(-a * x + b, y) == pytest.approx(-r, abs=1e-10)


def test_selection_cap_rule():
    # one feature per ten samples: 932 samples -> 93
    assert selection_cap(932) == 93
    assert selection_cap(9) == 1
    assert selection_cap(0) == 1
    assert selection_cap(932, 1) == 932


@pytest.mark.parametrize("per", [0, -5])
def test_per_samples_below_one_is_a_config_error(per):
    with pytest.raises(ConfigError, match="per_samples"):
        selection_cap(100, per)
    with pytest.raises(ConfigError, match="per_samples"):
        CvConfig(per_samples=per)


def test_label_column_selected_first():
    rng = np.random.default_rng(41)
    y = rng.integers(0, 2, size=40).astype(float)
    X = np.column_stack([rng.normal(size=40), y, rng.normal(size=40)])
    result = mrmr_select(X, y, 2, ["a", "is_label", "b"])
    assert result.selected[0] == "is_label"
    assert result.trace[0].relevance == pytest.approx(1.0, abs=1e-12)


def test_duplicate_column_redundancy_penalty():
    rng = np.random.default_rng(42)
    n = 20
    y = rng.integers(0, 2, size=n).astype(float)
    informative = y + rng.normal(0, 0.1, size=n)
    other = y + rng.normal(0, 0.6, size=n)
    X = np.column_stack([informative, informative, other, rng.normal(size=n), rng.normal(size=n)])
    names = ["dup_a", "dup_b", "other", "n1", "n2"]
    result = mrmr_select(X, y, 3, names)
    assert result.selected[0] == "dup_a"  # tie on |r| broken by name
    # the bit-identical duplicate carries |r| = 1 redundancy: never picked second
    assert result.selected[1] != "dup_b"
    oracle = bf_mrmr(X.tolist(), y.tolist(), 3, names)
    assert result.selected == oracle


def test_tie_break_is_lexicographic():
    y = np.array([0.0, 1.0, 0.0, 1.0])
    col = np.array([1.0, 2.0, 1.0, 2.0])
    X = np.column_stack([col, col])
    result = mrmr_select(X, y, 1, ["zeta", "alpha"])
    assert result.selected == ["alpha"]


def test_stops_when_scores_nonpositive():
    y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    col = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    X = np.column_stack([col, col, col])
    result = mrmr_select(X, y, 3, ["a", "b", "c"])
    # after the first pick every remaining candidate scores 1 - 1 = 0
    assert result.selected == ["a"]
    assert len(result.trace) == 1


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(43)
    for trial in range(30):
        n = int(rng.integers(5, 51))
        d = int(rng.integers(2, 13))
        X = rng.normal(size=(n, d))
        if trial % 3 == 0:
            X[:, 0] = X[:, 1]  # planted duplicate
        if trial % 4 == 0:
            X[:, -1] = 3.14  # constant column
        y = rng.integers(0, 2, size=n).astype(float)
        if len(np.unique(y)) < 2:
            y[0] = 1.0 - y[0]
        k = int(rng.integers(1, d + 1))
        # names in reverse column order: a tie broken by column index picks wrong
        names = [f"f{d - 1 - j:02d}" for j in range(d)]
        mine = mrmr_select(X, y, k, names).selected
        ref = bf_mrmr(X.tolist(), y.tolist(), k, names)
        assert mine == ref, (trial, mine, ref)
    # wider instances: informative columns with several exact copies, constant
    # columns, and names shuffled against the column order
    for trial in range(20):
        n = int(rng.integers(10, 41))
        d = int(rng.integers(20, 41))
        y = rng.integers(0, 2, size=n).astype(float)
        y[:2] = (0.0, 1.0)
        X = rng.normal(size=(n, d))
        X[:, :3] += y[:, None] * rng.uniform(0.5, 2.0, size=3)
        cols = rng.permutation(d)
        for src, dst in ((0, cols[:3]), (1, cols[3:5]), (2, cols[5:6])):
            X[:, dst] = X[:, [src]]
        X[:, cols[6:9]] = rng.normal(size=3)
        k = int(rng.integers(1, d + 1))
        names = [f"f{j:02d}" for j in rng.permutation(d)]
        mine = mrmr_select(X, y, k, names).selected
        ref = bf_mrmr(X.tolist(), y.tolist(), k, names)
        assert mine == ref, (trial, mine, ref)


def test_affine_rescaling_invariance():
    rng = np.random.default_rng(44)
    n, d = 30, 6
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n).astype(float)
    names = [f"f{j}" for j in range(d)]
    base = mrmr_select(X, y, 4, names).selected
    X2 = X * rng.uniform(0.5, 4.0, size=d) + rng.normal(size=d)
    assert mrmr_select(X2, y, 4, names).selected == base


def test_determinism():
    rng = np.random.default_rng(45)
    X = rng.normal(size=(25, 8))
    y = rng.integers(0, 2, size=25).astype(float)
    a = mrmr_select(X, y, 5)
    b = mrmr_select(X.copy(), y.copy(), 5)
    assert a.selected == b.selected
    assert [s.score for s in a.trace] == [s.score for s in b.trace]


def test_selection_errors():
    with pytest.raises(DataError):
        mrmr_select(np.zeros((0, 3)), np.zeros(0), 1)
    with pytest.raises(ConfigError):
        mrmr_select(np.zeros((4, 3)), np.zeros(4), 0)


def test_labels_that_do_not_fit_the_matrix_are_refused():
    # one label per row of X, also with rows: a short constant y once returned a
    # selection, and the other cases ended in numpy's broadcast error
    rng = np.random.default_rng(52)
    X = rng.normal(size=(10, 4))
    y = np.array([0.0, 1.0] * 5)
    rows = np.arange(2, 8)
    for labels, fold in ((np.ones(9), None), (y[:9], None), (y[rows], rows)):
        with pytest.raises(DataError, match="one per row"):
            mrmr_select(X, labels, 2, rows=fold)
    with pytest.raises(DataError, match="one per row"):
        correlation_report(X, y[:9])


def test_correlation_report_ranking():
    rng = np.random.default_rng(46)
    y = rng.integers(0, 2, size=50).astype(float)
    X = np.column_stack([y * 2.0, rng.normal(size=50), np.full(50, 7.0)])
    r = correlation_report(X, y)
    assert r.shape == (3,)
    assert r[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(r[1]) < abs(r[0])
    assert r[2] == 0.0  # a constant column
    assert np.array_equal(correlation_report(-X, y), -r)


@pytest.mark.parametrize("columns_per_block", [1, 2, 3, 4])
def test_correlation_report_by_column_blocks_keeps_every_bit(monkeypatch, columns_per_block):
    # a budget of 1-4 columns per block; 7 and 10 columns leave a one-column remainder at 2 and 3,
    # which joins the block before it, as a lone column would sum its norm pairwise
    rng = np.random.default_rng(52)
    for n, d in [(5, 1), (5, 2), (9, 7), (40, 10), (31, 13), (200, 64)]:
        X = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=d) + rng.normal(size=d) * 10.0
        X[:, rng.integers(d)] = -3.5  # a constant column
        y = rng.integers(0, 2, size=n).astype(float)
        y[:2] = (0.0, 1.0)
        whole = _corr(*_centered(X), y)
        monkeypatch.setattr(selection, "REPORT_BLOCK_BYTES", 8 * n * columns_per_block)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            assert np.array_equal(correlation_report(layout(X), y).view(np.int64), whole.view(np.int64)), (n, d)


def test_correlation_report_holds_no_copy_of_the_matrix():
    rng = np.random.default_rng(53)
    X = rng.normal(size=(289, 3092))
    y = (rng.uniform(size=289) < 0.3).astype(float)
    r, peak = traced_peak(lambda: correlation_report(X, y))
    assert np.array_equal(r, _corr(*_centered(X), y))
    assert peak <= 0.25 * X.nbytes, peak / X.nbytes


def test_corr_matches_the_elementwise_reference_bit_for_bit():
    # d == 1 (pearson) is left out: a single column reduces as one contiguous
    # run and may move by a few ulp; the 1e-12 pearson tests above cover it.
    rng = np.random.default_rng(47)
    sizes = [(2, 2), (3, 4000), (400, 2), (399, 3), (40, 503), (192, 3092)]
    sizes += [(int(rng.integers(2, 401)), int(rng.integers(2, 4001))) for _ in range(24)]
    for trial, (n, d) in enumerate(sizes):
        X = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=d) + rng.normal(size=d)
        if trial % 3 == 0:
            X[:, rng.integers(d)] = 2.5  # constant column
        y = rng.integers(0, 2, size=n).astype(float)
        y[:2] = (0.0, 1.0)
        assert np.array_equal(_corr(*_centered(X), y), bf_corr_elementwise(X, y)), (n, d)
        z = X[:, int(rng.integers(d))]  # a redundancy step correlates with a column
        assert np.array_equal(_corr(*_centered(X), z), bf_corr_elementwise(X, z)), (n, d)


def test_wide_duplicate_ties_match_the_oracle():
    # exact copies of the best column at the first, middle and last index: the
    # einsum sums them in its vector body and in its tail, and the tie must
    # still be exact and break on the smallest name (the last column)
    rng = np.random.default_rng(48)
    n, d = 40, 503
    y = rng.integers(0, 2, size=n).astype(float)
    y[:2] = (0.0, 1.0)
    X = rng.normal(size=(n, d))
    best = y * 2.0 + rng.normal(0, 0.3, size=n)
    second = y + rng.normal(0, 0.8, size=n)
    X[:, [0, d // 2, d - 1]] = best[:, None]
    X[:, [1, d // 2 + 1, d - 2]] = second[:, None]
    names = [f"f{d - 1 - j:03d}" for j in range(d)]
    result = mrmr_select(X, y, 5, names)
    assert result.selected[0] == "f000"
    assert result.indices[0] == d - 1
    assert [names[j] for j in result.indices] == result.selected
    assert result.selected == bf_mrmr(X.tolist(), y.tolist(), 5, names)


def test_r_does_not_depend_on_the_matrix_layout():
    rng = np.random.default_rng(49)
    n, d = 60, 300
    y = rng.integers(0, 2, size=n).astype(float)
    y[:2] = (0.0, 1.0)
    X = rng.normal(size=(n, d)) * rng.uniform(0.01, 1000.0, size=d)
    X[:, :10] += y[:, None] * rng.uniform(0.5, 3.0, size=10)
    names = [f"f{j:03d}" for j in range(d)]
    c_order = mrmr_select(np.ascontiguousarray(X), y, 8, names)
    f_order = mrmr_select(np.asfortranarray(X), y, 8, names)
    assert c_order.trace == f_order.trace
    full = correlation_report(X, y)
    cols = sorted(rng.choice(d, size=37, replace=False))
    sub = X[:, cols]  # fancy indexing returns an F-ordered matrix
    assert not sub.flags.c_contiguous
    sub_r = correlation_report(sub, y)
    assert np.array_equal(sub_r, full[cols])
    # the table's r is the relevance that selection reports, bit for bit
    assert c_order.trace[0].relevance == abs(full[c_order.indices[0]])


def _same_bits(got, want):
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_centered_equals_the_subtracted_copy_bit_for_bit():
    # the norms contract the matrix with itself, the same adds as the squares summed
    # down each column; a single column keeps the squared sum (pearson, a label)
    rng = np.random.default_rng(50)
    sizes = [(2, 2), (2, 4000), (400, 2), (400, 4000), (3, 1), (400, 1), (289, 3092)]
    sizes += [(int(rng.integers(2, 401)), int(rng.integers(2, 4001))) for _ in range(40)]
    sizes += [(int(rng.integers(2, 401)), int(rng.integers(2, 40))) for _ in range(40)]
    sizes += [(n, 1) for n in range(2, 41)]
    for trial, (n, d) in enumerate(sizes):
        X = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=d) + rng.normal(size=d) * 10.0
        if d > 1:
            X[:, rng.integers(d, size=1 + d // 50)] = 2.5  # constant columns
        if trial % 2:
            X = np.asfortranarray(X)
        before = X.copy()
        assert _same_bits(_centered(X), subtracted_centered(X)), (n, d)
        rows = rng.permutation(n)[: max(2, 2 * n // 3)]
        assert _same_bits(_centered(X, rows), subtracted_centered(X[rows])), (n, d)
        assert np.array_equal(X, before)  # centered in place on its own copy


def test_rows_select_as_the_gathered_fold():
    rng = np.random.default_rng(51)
    for trial in range(12):
        n, d = int(rng.integers(12, 120)), int(rng.integers(2, 600))
        X = rng.normal(size=(n, d)) * rng.uniform(0.01, 1000.0, size=d)
        y = rng.integers(0, 2, size=n).astype(float)
        X[:, : min(d, 6)] += y[:, None] * rng.uniform(0.5, 3.0, size=min(d, 6))
        X[:, rng.integers(d, size=3)] = -1.25  # constant columns
        X[:, rng.integers(d, size=3)] = X[:, rng.integers(d, size=3)]  # duplicate columns
        if trial % 2:
            X = np.asfortranarray(X)
        before = X.copy()
        rows = np.sort(rng.choice(n, size=int(rng.integers(4, n)), replace=False))
        if trial % 3 == 0:
            rows = rng.permutation(rows)
        y[rows[:2]] = (0.0, 1.0)
        names = [f"f{j:04d}" for j in rng.permutation(d)]
        k = int(rng.integers(1, 12))
        fold = mrmr_select(X, y, k, names, rows=rows)
        copied = mrmr_select(X[rows], y[rows], k, names)
        assert fold.trace == copied.trace
        assert fold.indices == copied.indices and fold.selected == copied.selected
        assert np.array_equal(X, before)
