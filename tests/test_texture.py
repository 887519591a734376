import numpy as np
import pytest

from radrisk import RoiMask, VolumeImage
from radrisk.errors import ConfigError, DataError
from radrisk.features import (
    FAMILY_FEATURES,
    FIRSTORDER_FEATURES,
    GLCM_FEATURES,
    GLDM_FEATURES,
    TEXTURE_FAMILIES,
    discretize,
    firstorder_features,
    texture_features,
)
from radrisk.features.firstorder import firstorder_rows
from radrisk.features.texture import discretize_rows, texture_rows
from helpers import full_mask, mask_of, vol
from oracles import BF_FAMILIES, bf_glrlm_runs, bf_glszm_zones, roi_dict


def droi_of(values, dims, n_bins, mask_values=None):
    img = vol(values, dims)
    mask = full_mask(dims) if mask_values is None else mask_of(mask_values, dims)
    return discretize(img, mask, n_bins)


def test_rosters():
    assert len(FAMILY_FEATURES["glcm"]) == 22
    assert len(FAMILY_FEATURES["glrlm"]) == 16
    assert len(FAMILY_FEATURES["glszm"]) == 16
    assert len(FAMILY_FEATURES["gldm"]) == 14


def test_discretize_examples():
    d = droi_of([0, 1, 2, 3], (4, 1, 1), 2)
    assert d.levels.tolist() == [1, 1, 2, 2]
    d = droi_of([5, 5, 5], (3, 1, 1), 6)
    assert d.levels.tolist() == [1, 1, 1]
    with pytest.raises(ConfigError):
        droi_of([1, 2], (2, 1, 1), 1)


def test_gldm_single_voxel():
    d = droi_of([4.2], (1, 1, 1), 4)
    f = texture_features(d, "gldm")
    # dependence matrix P(1,1) = 1 (the voxel depends only on itself)
    assert f["SmallDependenceEmphasis"] == pytest.approx(1.0, abs=1e-12)
    assert f["LargeDependenceEmphasis"] == pytest.approx(1.0, abs=1e-12)
    assert f["DependenceEntropy"] == 0.0


def test_glszm_two_zones_line():
    # levels [1, 1, 2, 2] along x: two zones of size 2
    d = droi_of([0, 0, 9, 9], (4, 1, 1), 2)
    f = texture_features(d, "glszm")
    oracle = BF_FAMILIES["glszm"](roi_dict(np.ones((4, 1, 1), bool), levels=[1, 1, 2, 2]), 2)
    # size-marginal: both zones share size 2 -> (1 + 1)^2 / 2^2 = 1.0
    assert f["SizeZoneNonUniformityNormalized"] == pytest.approx(1.0, abs=1e-12)
    # gray-level marginal: one zone per level -> (1^2 + 1^2) / 2^2 = 0.5
    assert f["GrayLevelNonUniformityNormalized"] == pytest.approx(0.5, abs=1e-12)
    for name, value in f.items():
        assert value == pytest.approx(oracle[name], abs=1e-12), name


def test_glcm_single_voxel_convention():
    d = droi_of([1.0], (1, 1, 1), 4)
    f = texture_features(d, "glcm")
    assert all(v == 0.0 for v in f.values())  # no voxel pair in any direction


def test_gray_level_permutation_leaves_size_features():
    base = droi_of([0, 0, 9, 9], (4, 1, 1), 2)
    swapped = droi_of([9, 9, 0, 0], (4, 1, 1), 2)
    fa = texture_features(base, "glszm")
    fb = texture_features(swapped, "glszm")
    for name in ("SizeZoneNonUniformityNormalized", "SmallAreaEmphasis", "LargeAreaEmphasis",
                 "ZonePercentage", "ZoneEntropy"):
        assert fa[name] == pytest.approx(fb[name], abs=1e-12)


def test_intensity_translation_invariance():
    rng = np.random.default_rng(30)
    values = rng.normal(50, 10, size=(5, 5, 5))
    mask = RoiMask(rng.uniform(size=(5, 5, 5)) < 0.6)
    a = discretize(VolumeImage(values), mask, 5)
    b = discretize(VolumeImage(values + 123.0), mask, 5)
    for family in TEXTURE_FAMILIES:
        fa = texture_features(a, family)
        fb = texture_features(b, family)
        for name in fa:
            assert fa[name] == pytest.approx(fb[name], abs=1e-12), (family, name)


def test_rotation_mean_aggregation_invariance():
    rng = np.random.default_rng(31)
    values = rng.normal(size=(4, 4, 4))
    mask_arr = rng.uniform(size=(4, 4, 4)) < 0.7
    mask_arr[1, 1, 1] = True
    base = {
        fam: texture_features(discretize(VolumeImage(values), RoiMask(mask_arr), 4), fam)
        for fam in TEXTURE_FAMILIES
    }
    for axes in ((1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0)):
        rotated_vals = np.transpose(values, axes)
        rotated_mask = np.transpose(mask_arr, axes)
        d = discretize(VolumeImage(rotated_vals), RoiMask(rotated_mask), 4)
        for fam in TEXTURE_FAMILIES:
            rotated = texture_features(d, fam)
            for name in rotated:
                assert rotated[name] == pytest.approx(base[fam][name], abs=1e-9), (fam, name, axes)


def test_oracle_equivalence_random_rois():
    rng = np.random.default_rng(32)
    # 40 tiny ROIs; then larger, smoothed ones with many bins, which have runs
    # longer than one voxel, multi-voxel zones and gray levels no voxel takes
    cases = [((1, 5), (2, 4), False)] * 40 + [((6, 9), (16, 32), True)] * 4
    longest_run = largest_zone = most_empty_levels = 0
    for trial, ((dim_lo, dim_hi), (bins_lo, bins_hi), smooth) in enumerate(cases):
        dims = tuple(int(rng.integers(dim_lo, dim_hi + 1)) for _ in range(3))
        mask_arr = rng.uniform(size=dims) < rng.uniform(0.3, 0.95)
        if not mask_arr.any():
            mask_arr[0, 0, 0] = True
        values = rng.normal(size=dims)
        if smooth:
            values = values.cumsum(axis=0).cumsum(axis=1)
        n_bins = int(rng.integers(bins_lo, bins_hi + 1))
        d = discretize(VolumeImage(values), RoiMask(mask_arr), n_bins)
        roi = roi_dict(mask_arr, values=values, n_bins=n_bins)
        assert sorted(map(tuple, d.coords.tolist())) == sorted(roi)
        if smooth:
            longest_run = max(longest_run, max(n for _, n in bf_glrlm_runs(roi, (1, 0, 0))))
            largest_zone = max(largest_zone, max(n for _, n in bf_glszm_zones(roi)))
            most_empty_levels = max(most_empty_levels, n_bins - len(set(roi.values())))
        for family in TEXTURE_FAMILIES:
            mine = texture_features(d, family)
            ref = BF_FAMILIES[family](roi, n_bins)
            assert set(mine) == set(ref)
            for name in mine:
                assert mine[name] == pytest.approx(ref[name], abs=1e-10), (family, name, trial)
    assert longest_run > 2 and largest_zone > 2 and most_empty_levels > 0


def test_glrlm_runs_simple_line():
    d = droi_of([0, 0, 0, 9], (4, 1, 1), 2)
    f = texture_features(d, "glrlm")
    # along x: runs (1,3),(2,1); the other 12 directions: 4 runs of length 1
    expected_sre_x = (1 / 9 + 1) / 2
    oracle = BF_FAMILIES["glrlm"](roi_dict(np.ones((4, 1, 1), bool), levels=[1, 1, 1, 2]), 2)
    assert f["ShortRunEmphasis"] == pytest.approx((expected_sre_x + 12 * 1.0) / 13, abs=1e-12)
    assert f["ShortRunEmphasis"] == pytest.approx(oracle["ShortRunEmphasis"], abs=1e-12)
    assert f["RunPercentage"] == pytest.approx(oracle["RunPercentage"], abs=1e-12)


def test_determinism_bitwise():
    rng = np.random.default_rng(33)
    values = rng.normal(size=(5, 4, 3))
    mask_arr = rng.uniform(size=(5, 4, 3)) < 0.5
    mask_arr[0, 0, 0] = True
    d1 = discretize(VolumeImage(values.copy()), RoiMask(mask_arr.copy()), 4)
    d2 = discretize(VolumeImage(values.copy()), RoiMask(mask_arr.copy()), 4)
    for fam in TEXTURE_FAMILIES:
        f1 = texture_features(d1, fam)
        f2 = texture_features(d2, fam)
        assert f1 == f2


def _roi_set(rng, n_rois):
    """The ROI shapes of test_oracle_equivalence_random_rois: tiny ROIs with few
    bins, then larger ones with many bins."""
    cases = [((1, 5), (2, 4))] * n_rois + [((6, 9), (16, 32))] * (n_rois // 10)
    for (dim_lo, dim_hi), (bins_lo, bins_hi) in cases:
        dims = tuple(int(rng.integers(dim_lo, dim_hi + 1)) for _ in range(3))
        mask_arr = rng.uniform(size=dims) < rng.uniform(0.3, 0.95)
        if not mask_arr.any():
            mask_arr[0, 0, 0] = True
        yield dims, mask_arr, int(rng.integers(bins_lo, bins_hi + 1))


def _stack_of(rng, dims, mask_arr, k):
    """k images on one grid (some smoothed, so they have long runs and large
    zones) and their ROI values as a (k, n_roi) stack."""
    images = [rng.normal(size=dims) for _ in range(k)]
    images = [img.cumsum(axis=0).cumsum(axis=1) if r % 2 else img for r, img in enumerate(images)]
    return images, np.stack([img[mask_arr] for img in images])


def test_stack_rows_equal_single_image_calls_bitwise():
    rng = np.random.default_rng(34)
    for k in range(1, 10):
        for dims, mask_arr, n_bins in _roi_set(rng, 10):
            mask = RoiMask(mask_arr)
            images, values = _stack_of(rng, dims, mask_arr, k)
            droi = discretize_rows(values, mask, n_bins)
            stacked = [firstorder_rows(values)] + [texture_rows(droi, family) for family in TEXTURE_FAMILIES]
            for r, img in enumerate(images):
                single = discretize(VolumeImage(img), mask, n_bins)
                assert np.array_equal(droi.rows[r], single.levels)
                alone = [list(firstorder_features(VolumeImage(img), mask).values())] + [
                    list(texture_features(single, family).values()) for family in TEXTURE_FAMILIES
                ]
                for got, want in zip(stacked, alone):
                    assert np.array_equal(got[r].view(np.int64), np.array(want).view(np.int64)), (k, r)


def test_stack_rows_match_oracles():
    rng = np.random.default_rng(35)
    for dims, mask_arr, n_bins in _roi_set(rng, 10):
        k = int(rng.integers(2, 10))
        images, values = _stack_of(rng, dims, mask_arr, k)
        droi = discretize_rows(values, RoiMask(mask_arr), n_bins)
        with pytest.raises(DataError, match="one image"):
            texture_features(droi, "glcm")
        for family in TEXTURE_FAMILIES:
            rows = texture_rows(droi, family)
            assert rows.shape == (k, len(FAMILY_FEATURES[family]))
            for r, img in enumerate(images):
                ref = BF_FAMILIES[family](roi_dict(mask_arr, values=img, n_bins=n_bins), n_bins)
                for name, value in zip(FAMILY_FEATURES[family], rows[r]):
                    assert value == pytest.approx(ref[name], abs=1e-10), (family, name, r)


def _feature(rows, names, r, name):
    return rows[r, names.index(name)]


def test_stack_conventions_hold_row_by_row():
    # a line of 6 voxels along x: only direction (1, 0, 0) has voxel pairs
    dims = (6, 1, 1)
    mask = full_mask(dims)
    constant = np.full(6, 3.5)
    two_level = np.array([0.0, 0.0, 0.0, 9.0, 9.0, 9.0])
    noisy = np.random.default_rng(36).normal(size=6)
    values = np.stack([constant, two_level, noisy])
    first = firstorder_rows(values)
    for name in ("Skewness", "Kurtosis"):
        assert _feature(first, FIRSTORDER_FEATURES, 0, name) == 0.0  # m2 == 0
        assert _feature(first, FIRSTORDER_FEATURES, 2, name) != 0.0
    assert _feature(first, FIRSTORDER_FEATURES, 1, "Kurtosis") == pytest.approx(1.0, abs=1e-12)

    droi = discretize_rows(values, mask, 4)
    assert droi.rows[0].tolist() == [1] * 6  # a constant ROI quantizes to level 1
    assert droi.rows[1].tolist() == [1, 1, 1, 4, 4, 4]
    assert len(set(droi.rows[2].tolist())) > 2

    glcm = texture_rows(droi, "glcm")
    assert _feature(glcm, GLCM_FEATURES, 0, "Correlation") == 1.0  # zero variance
    assert _feature(glcm, GLCM_FEATURES, 1, "Correlation") != 1.0
    # the 12 directions without a pair are left out of the mean: the two-level
    # row's one direction has pairs (1,1) x2, (1,4), (4,4) x2, so its
    # symmetric matrix sums to 10 and Contrast is 2 * 3^2 / 10
    assert _feature(glcm, GLCM_FEATURES, 1, "Contrast") == pytest.approx(1.8, abs=1e-12)
    assert _feature(glcm, GLCM_FEATURES, 0, "Contrast") == 0.0
    for r in range(len(values)):
        ref = BF_FAMILIES["glcm"](roi_dict(np.ones(dims, bool), levels=droi.rows[r].tolist()), 4)
        for name, value in zip(GLCM_FEATURES, glcm[r]):
            assert value == pytest.approx(ref[name], abs=1e-12), (name, r)

    # no direction has a pair: one voxel, and voxels that touch no other
    isolated = np.zeros((5, 5, 5), bool)
    isolated[0, 0, 0] = isolated[2, 2, 2] = isolated[4, 0, 4] = True
    for mask_arr in (np.ones((1, 1, 1), bool), isolated):
        n = int(mask_arr.sum())
        stack = np.stack([np.full(n, 2.0), np.arange(n, dtype=float), -np.arange(n, dtype=float)])
        single = discretize_rows(stack, RoiMask(mask_arr), 4)
        assert not texture_rows(single, "glcm").any()
        assert _feature(firstorder_rows(stack), FIRSTORDER_FEATURES, 0, "Skewness") == 0.0
        # every voxel depends on itself alone
        gldm = texture_rows(single, "gldm")
        assert gldm[:, GLDM_FEATURES.index("SmallDependenceEmphasis")].tolist() == [1.0] * 3
