import numpy as np
import pytest

from radrisk import RoiMask, VolumeImage
from radrisk.errors import ConfigError
from radrisk.features import (
    FAMILY_FEATURES,
    TEXTURE_FAMILIES,
    discretize,
    texture_features,
)
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
