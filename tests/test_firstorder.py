import numpy as np
import pytest

from radrisk.features import FIRSTORDER_FEATURES, bin_levels, firstorder_features
from radrisk.features.firstorder import entropy_bits, firstorder_rows
from helpers import full_mask, mask_of, vol, vol3d
from oracles import masked_entropy_bits, pow_moments


def test_feature_roster():
    f = firstorder_features(vol([1, 2], (2, 1, 1)), full_mask((2, 1, 1)))
    assert tuple(f) == FIRSTORDER_FEATURES
    assert len(f) == 16


def test_hand_values_1234():
    f = firstorder_features(vol([1, 2, 3, 4], (4, 1, 1)), full_mask((4, 1, 1)))
    assert f["Mean"] == 2.5
    assert f["Median"] == 2.5
    assert f["Range"] == 3.0
    assert f["Energy"] == 30.0
    assert f["Variance"] == 1.25
    assert f["Minimum"] == 1.0 and f["Maximum"] == 4.0
    assert f["RootMeanSquared"] == pytest.approx(np.sqrt(30.0 / 4.0), abs=1e-12)
    assert f["MeanAbsoluteDeviation"] == 1.0
    assert f["Skewness"] == pytest.approx(0.0, abs=1e-12)


def test_constant_roi_conventions():
    f = firstorder_features(vol([7, 7, 7], (3, 1, 1)), full_mask((3, 1, 1)))
    assert f["Range"] == 0.0
    assert f["Variance"] == 0.0
    assert f["Entropy"] == 0.0
    assert f["Uniformity"] == 1.0
    assert f["Skewness"] == 0.0
    assert f["Kurtosis"] == 0.0


def test_translation_law():
    rng = np.random.default_rng(20)
    values = rng.normal(10, 3, size=(4, 4, 4))
    mask = full_mask((4, 4, 4))
    base = firstorder_features(vol3d(values), mask)
    shifted = firstorder_features(vol3d(values + 5.0), mask)
    for name in ("Mean", "Median", "Minimum", "Maximum", "10Percentile", "90Percentile"):
        assert shifted[name] == pytest.approx(base[name] + 5.0, abs=1e-9)
    for name in ("Variance", "Range", "Skewness", "Kurtosis", "Entropy", "Uniformity",
                 "MeanAbsoluteDeviation", "InterquartileRange"):
        assert shifted[name] == pytest.approx(base[name], abs=1e-9)


def test_moments_match_direct_formulas():
    rng = np.random.default_rng(21)
    values = rng.normal(size=100)
    f = firstorder_features(vol(values, (100, 1, 1)), full_mask((100, 1, 1)))
    mu = values.mean()
    m2 = ((values - mu) ** 2).mean()
    m3 = ((values - mu) ** 3).mean()
    m4 = ((values - mu) ** 4).mean()
    assert f["Variance"] == pytest.approx(m2, rel=1e-12)
    assert f["Skewness"] == pytest.approx(m3 / m2**1.5, rel=1e-12)
    assert f["Kurtosis"] == pytest.approx(m4 / m2**2, rel=1e-12)
    assert f["10Percentile"] == pytest.approx(np.percentile(values, 10), rel=1e-12)
    assert f["InterquartileRange"] == pytest.approx(
        np.percentile(values, 75) - np.percentile(values, 25), rel=1e-12
    )


def test_entropy_uniformity_binning():
    # two equal-mass bins: entropy 1 bit, uniformity 0.5
    values = [0.0] * 8 + [1.0] * 8
    f = firstorder_features(vol(values, (16, 1, 1)), full_mask((16, 1, 1)))
    assert f["Entropy"] == pytest.approx(1.0, abs=1e-12)
    assert f["Uniformity"] == pytest.approx(0.5, abs=1e-12)


def test_masked_subset_only():
    img = vol([1, 2, 100, 200], (4, 1, 1))
    mask = mask_of([1, 1, 0, 0], (4, 1, 1))
    f = firstorder_features(img, mask)
    assert f["Maximum"] == 2.0
    assert f["Mean"] == 1.5


def test_bin_levels_rules():
    levels = bin_levels(np.array([0.0, 1.0, 2.0, 3.0]), 2)
    assert levels.tolist() == [1, 1, 2, 2]
    assert bin_levels(np.array([5.0, 5.0]), 4).tolist() == [1, 1]
    # vmax maps to n_bins, never n_bins + 1
    levels = bin_levels(np.array([0.0, 10.0]), 7)
    assert levels.tolist() == [1, 7]


def test_stacked_order_statistics_match_numpy_per_row():
    rng = np.random.default_rng(22)
    columns = [FIRSTORDER_FEATURES.index(name) for name in
               ("Median", "10Percentile", "90Percentile", "InterquartileRange", "Minimum", "Maximum")]
    for n in (1, 2, 3, 4, 7, 10, 64, 91):
        values = rng.normal(50, 10, size=(9, n))
        values[3] = 5.0  # a constant row among the others
        got = firstorder_rows(values)[:, columns]
        p10, p25, p75, p90 = np.percentile(values, [10, 25, 75, 90], axis=1)
        want = np.stack([np.median(values, axis=1), p10, p90, p75 - p25, values.min(axis=1), values.max(axis=1)],
                        axis=1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_bin_levels_per_row():
    values = np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 4.0, 4.0, 4.0], [3.0, 2.0, 1.0, 0.0]])
    assert bin_levels(values, 2).tolist() == [[1, 1, 2, 2], [1, 1, 1, 1], [2, 2, 1, 1]]


def test_moments_from_products_match_the_pow_moments():
    rng = np.random.default_rng(23)
    columns = [FIRSTORDER_FEATURES.index(name) for name in ("Skewness", "Kurtosis")]
    for n in (1, 2, 3, 5, 64, 1000, 11041):
        values = rng.normal(0, 1, size=(12, n)) * rng.uniform(1e-3, 1e3, size=(12, 1))
        values[1] = rng.exponential(2.0, size=n)
        values[2] = rng.integers(0, 4, size=n)
        values[3] = 7.25  # constant: both moments are 0 by convention
        values[4] = 1e6 + rng.normal(0, 1e-7, size=n)  # near-constant
        values[5] = 3.0
        values[5, 0] = 3.0 + 2.0**-40  # one voxel off a constant
        skewness, kurtosis = firstorder_rows(values)[:, columns].T
        want_skewness, want_kurtosis = pow_moments(values)
        np.testing.assert_allclose(kurtosis, want_kurtosis, rtol=1e-12, atol=0)
        # a skewness whose terms cancel (to 0 for n = 2) is rounding noise, so
        # its error is relative to the same moment of the absolute deviations
        centered = np.abs(values - values.mean(axis=1, keepdims=True))
        m2 = (centered**2).mean(axis=1)
        scale = np.divide((centered**3).mean(axis=1), m2**1.5, out=np.zeros(len(m2)), where=m2 > 0.0)
        assert np.all(np.abs(skewness - want_skewness) <= 1e-12 * scale), n
        assert skewness[3] == 0.0 and kurtosis[3] == 0.0


def test_entropy_bits_equal_the_masked_log2():
    rng = np.random.default_rng(24)
    for zeros in np.linspace(0.0, 0.95, 20):
        for shape in ((32,), (9, 32), (13, 63)):
            p = rng.exponential(size=shape) * (rng.uniform(size=shape) >= zeros)
            p /= np.maximum(p.sum(axis=-1, keepdims=True), 1e-300)
            got, want = entropy_bits(p), masked_entropy_bits(p)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (zeros, shape)
