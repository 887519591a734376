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
from radrisk.features.texture import (
    DiscretizedRoi,
    _Cells,
    _cooccurrence_cells,
    _counts,
    _dependence_codes,
    _zone_codes,
    discretize_rows,
    run_length_counts,
    size_zone_counts,
    texture_rows,
)
from helpers import full_mask, mask_of, vol
from oracles import (
    BF_FAMILIES,
    OFFSETS_13,
    bf_gldm_entries,
    bf_glcm_direction,
    bf_glrlm_runs,
    bf_glszm_zones,
    roi_dict,
)


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
        assert sorted(map(tuple, d.mask.coords.tolist())) == sorted(roi)
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


def _serpentine(k):
    """A 1-voxel-wide zone snaking through a 9 x 9 x 3 box: along y on the
    even x of plane z = 0, up through z = 1 at its end, and back on plane
    z = 2. Its smallest voxel is one end, the far end 98 steps away. The
    other voxels take other levels, so it is one zone in every row."""
    path = []
    for z, xs in ((0, range(0, 9)), (2, range(8, -1, -1))):
        for x in xs:
            if x % 2 == 0:
                ys = range(9) if (x // 2) % 2 == 0 else range(8, -1, -1)
                path += [(x, y, z) for y in ys]
            else:  # the one voxel that joins two rows
                path.append((x, 8 if (x // 2) % 2 == 0 else 0, z))
        if z == 0:
            path.append((8, 8, 1))
    on_path = np.zeros((9, 9, 3), bool)
    on_path[tuple(np.transpose(path))] = True
    rng = np.random.default_rng(37)
    rows = []
    for r in range(k):
        level = 1 + r % 4
        other = rng.choice([v for v in range(1, 6) if v != level], size=on_path.shape)
        rows.append(np.where(on_path, level, other).ravel())
    return np.ones_like(on_path), np.stack(rows), 5


def _checkerboard(k):
    """A 4 x 4 x 4 3D checkerboard: each parity is one 26-connected zone,
    joined across face diagonals, although no two of its voxels share a face."""
    parity = np.indices((4, 4, 4)).sum(axis=0) % 2
    rows = [np.where(parity == r % 2, 1 + r % 3, 4 + r % 2).ravel() for r in range(k)]
    return np.ones((4, 4, 4), bool), np.stack(rows), 6


def _single_plane(k):
    """A 7 x 5 x 1 ROI with holes: the 9 directions with a z step have no pair."""
    rng = np.random.default_rng(38)
    mask = rng.uniform(size=(7, 5, 1)) < 0.8
    mask[0, 0, 0] = True
    return mask, rng.integers(1, 4, size=(k, int(mask.sum()))), 3


def _longest_run(k):
    """A 9 x 3 x 2 box whose first x-line is one level: a run of 9, the box's
    largest extent, which fills the last column of its matrix."""
    rng = np.random.default_rng(39)
    mask = np.ones((9, 3, 2), bool)
    levels = rng.integers(2, 5, size=(k,) + mask.shape)
    levels[:, :, 0, 0] = 1
    return mask, levels.reshape(k, -1), 4


def _unused_level(k):
    """Levels 1, 3 and 6 of Ng = 6 only, so three gray levels have no voxel."""
    rng = np.random.default_rng(40)
    mask = rng.uniform(size=(5, 4, 4)) < 0.7
    mask[0, 0, 0] = True
    return mask, rng.choice([1, 3, 6], size=(k, int(mask.sum()))), 6


def _cell_counts(matrix):
    """{(gray level, run length or zone size): count} of one count matrix."""
    return {(int(i) + 1, int(j) + 1): int(matrix[i, j]) for i, j in zip(*np.nonzero(matrix))}


def _tally(entries):
    counts = {}
    for entry in entries:
        counts[entry] = counts.get(entry, 0) + 1
    return counts


@pytest.mark.parametrize("case", [_serpentine, _checkerboard, _single_plane, _longest_run, _unused_level])
@pytest.mark.parametrize("k", [1, 9])
def test_zone_and_run_counts_equal_the_oracles(case, k):
    mask, levels, n_bins = case(k)
    droi = DiscretizedRoi(levels[0] if k == 1 else levels, n_bins, RoiMask(mask))
    zones = size_zone_counts(droi)
    runs = run_length_counts(droi)
    assert zones.shape == (k, n_bins, droi.mask.count)
    assert runs.shape == (k * len(OFFSETS_13), n_bins, max(mask.shape))
    for r in range(k):
        roi = roi_dict(mask, levels=levels[r].tolist())
        assert _cell_counts(zones[r]) == _tally(bf_glszm_zones(roi)), r
        for d, offset in enumerate(OFFSETS_13):
            assert _cell_counts(runs[r * len(OFFSETS_13) + d]) == _tally(bf_glrlm_runs(roi, offset)), (r, offset)


@pytest.mark.parametrize("case", [_serpentine, _checkerboard, _single_plane, _longest_run, _unused_level])
@pytest.mark.parametrize("k", [1, 9])
def test_zone_cells_from_codes_equal_the_dense_cells(case, k):
    mask, levels, n_bins = case(k)
    codes, shape = _zone_codes(DiscretizedRoi(levels[0] if k == 1 else levels, n_bins, RoiMask(mask)))
    sparse, dense = _Cells.from_codes(codes, shape), _Cells.of(_counts(codes, shape))
    assert sparse.m == dense.m == k
    for name in ("matrix", "i", "j", "count"):
        got, want = getattr(sparse, name), getattr(dense, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def _matrix_cells(cells, matrix):
    """{(row level, column level or dependence): count} of one matrix's cells."""
    on = cells.matrix == matrix
    return {(int(i) + 1, int(j) + 1): int(c) for i, j, c in zip(cells.i[on], cells.j[on], cells.count[on])}


# Ng 32 leaves every case's codes fewer than its cells, so they are sorted;
# at Ng 2 GLCM's pairs fill the 2 x 2 matrices and are counted densely
@pytest.mark.parametrize("case", [_serpentine, _checkerboard, _single_plane, _longest_run, _unused_level])
@pytest.mark.parametrize("k", [1, 9])
@pytest.mark.parametrize("ng", [32, 2])
def test_cooccurrence_and_dependence_counts_equal_the_oracles(case, k, ng):
    mask, levels, n_bins = case(k)
    levels = (levels - 1) % ng + 1  # unchanged at Ng 32
    droi = DiscretizedRoi(levels[0] if k == 1 else levels, ng, RoiMask(mask))
    pairs = droi.mask.neighbor_pairs
    has_pair = np.bincount(pairs.direction, minlength=len(OFFSETS_13)) > 0
    directions = np.flatnonzero(has_pair)
    assert (2 * pairs.a.size < len(directions) * ng * ng) == (ng == 32)
    glcm = _cooccurrence_cells(droi, has_pair)
    gldm = _Cells.from_codes(*_dependence_codes(droi))
    assert glcm.m == k * len(directions) and gldm.m == k
    for r in range(k):
        roi = roi_dict(mask, levels=levels[r].tolist())
        for d, offset in enumerate(OFFSETS_13):
            want = bf_glcm_direction(roi, offset, ng)
            if has_pair[d]:
                assert _matrix_cells(glcm, r * len(directions) + np.searchsorted(directions, d)) == want, (r, offset)
            else:
                assert want == {}, offset
        assert _matrix_cells(gldm, r) == _tally(bf_gldm_entries(roi)), r


def test_dependence_counts_take_both_branches():
    """At Ng 2 the voxels of _serpentine outnumber a row's 2 x 27 cells, so
    they are counted densely; those of _single_plane are sorted."""
    for case, dense in ((_serpentine, True), (_single_plane, False)):
        mask, levels, _ = case(1)
        codes, shape = _dependence_codes(DiscretizedRoi((levels[0] - 1) % 2 + 1, 2, RoiMask(mask)))
        assert (codes.size >= np.prod(shape)) == dense, case.__name__


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: [],
        lambda rng: [17],
        lambda rng: [23] * 40,
        lambda rng: [59] * 10,
        lambda rng: np.append(rng.integers(0, 59, size=20), [59, 59]),
        lambda rng: rng.integers(0, 60, size=59),
        lambda rng: rng.integers(0, 60, size=60),
        lambda rng: rng.integers(0, 60, size=61),
        lambda rng: rng.integers(0, 60, size=(2, 3, 7)),
    ],
    ids=["empty", "single", "all-equal", "all-in-last-cell", "last-cell", "below", "at", "above", "2d"],
)
def test_cells_from_codes_equal_the_dense_cells_on_random_codes(make):
    shape = (3, 4, 5)  # 60 cells
    codes = np.asarray(make(np.random.default_rng(41)), dtype=np.int64)
    sparse, dense = _Cells.from_codes(codes, shape), _Cells.of(_counts(codes, shape))
    assert sparse.m == dense.m == 3
    for name in ("matrix", "i", "j", "count"):
        got, want = getattr(sparse, name), getattr(dense, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_discretized_roi_rejects_non_integer_levels():
    line = full_mask((3, 1, 1))
    for levels in ([1.9, 2.5, 1.2], [1.0, 2.0, np.nan], [1.0, np.inf, 2.0]):
        with pytest.raises(DataError, match="integer"):
            DiscretizedRoi(np.array(levels), 3, line)
    # integer values are levels, whatever the dtype
    assert DiscretizedRoi(np.array([1.0, 3.0, 2.0]), 3, line).levels.tolist() == [1, 3, 2]


@pytest.mark.parametrize("levels, match", [
    ([0, 1, 2], "out of range"),
    ([1, 4, 2], "out of range"),
    ([1, 2], "disagree"),
    ([[1, 2, 3, 1]], "disagree"),
    ([[[1, 2, 3]]], "disagree"),
    ([], "empty"),
])
def test_discretized_roi_checks_levels_against_its_mask(levels, match):
    with pytest.raises(DataError, match=match):
        DiscretizedRoi(np.array(levels, dtype=np.int64), 3, full_mask((3, 1, 1)))


def test_count_cases_reach_their_extremes():
    mask, levels, _ = _serpentine(1)
    zones = bf_glszm_zones(roi_dict(mask, levels=levels[0].tolist()))
    assert max(size for _, size in zones) == 2 * (5 * 9 + 4) + 1
    mask, levels, _ = _checkerboard(1)
    assert sorted(size for _, size in bf_glszm_zones(roi_dict(mask, levels=levels[0].tolist()))) == [32, 32]
    mask, levels, _ = _longest_run(1)
    assert max(n for _, n in bf_glrlm_runs(roi_dict(mask, levels=levels[0].tolist()), (1, 0, 0))) == 9
    mask, levels, n_bins = _unused_level(9)
    assert set(levels.ravel().tolist()) == {1, 3, 6} and n_bins == 6


def test_equal_pairs_are_the_row_major_equal_level_pairs():
    rng = np.random.default_rng(32)
    for _ in range(30):
        dims = tuple(int(rng.integers(1, 7)) for _ in range(3))
        fg = rng.uniform(size=dims) < 0.7
        fg[0, 0, 0] = True
        mask = RoiMask(fg)
        levels = rng.integers(1, 4, size=(int(rng.integers(1, 5)), mask.count))
        droi = DiscretizedRoi(levels, 3, mask)
        a, b, direction = mask.neighbor_pairs
        la, lb = droi.pair_levels
        assert np.array_equal(la, levels[:, a]) and np.array_equal(lb, levels[:, b])
        row, pair = np.nonzero(levels[:, a] == levels[:, b])
        got = droi.equal_pairs
        assert np.array_equal(got.a, a[pair] + row * mask.count)
        assert np.array_equal(got.b, b[pair] + row * mask.count)
        assert np.array_equal(got.direction, direction[pair])
