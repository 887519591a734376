import itertools
import math

import numpy as np
import pytest

from radrisk import RoiMask
from radrisk.errors import DataError
from radrisk.features import SHAPE_FEATURES, shape_features
from radrisk.features.shape import _max_pairwise
from helpers import mask_of
from oracles import bf_diameters, bf_max_pairwise, padded_surface_area

DIAMETERS = ("Maximum3DDiameter", "Maximum2DDiameterRow", "Maximum2DDiameterColumn",
             "Maximum2DDiameterSlice")


def test_feature_roster():
    m = mask_of([1], (1, 1, 1))
    feats = shape_features(m, (1, 1, 1))
    assert tuple(feats) == SHAPE_FEATURES
    assert len(feats) == 14


def test_single_voxel_closed_forms():
    m = mask_of([1], (1, 1, 1))
    f = shape_features(m, (1.0, 1.0, 1.0))
    sphericity = (36.0 * math.pi) ** (1.0 / 3.0) / 6.0
    assert f["Volume"] == pytest.approx(1.0, abs=1e-12)
    assert f["SurfaceArea"] == pytest.approx(6.0, abs=1e-12)
    assert f["SurfaceVolumeRatio"] == pytest.approx(6.0, abs=1e-12)
    assert f["Sphericity"] == pytest.approx(sphericity, abs=1e-12)
    assert f["SphericalDisproportion"] == pytest.approx(1.0 / sphericity, abs=1e-12)
    assert f["MajorAxisLength"] == 0.0
    assert f["Elongation"] == 0.0 and f["Flatness"] == 0.0
    assert f["Maximum3DDiameter"] == 0.0


def test_single_voxel_anisotropic_spacing():
    m = mask_of([1], (1, 1, 1))
    f = shape_features(m, (1.0, 2.0, 3.0))
    assert f["Volume"] == pytest.approx(6.0, abs=1e-12)
    assert f["SurfaceArea"] == pytest.approx(2 * (2 * 3 + 1 * 3 + 1 * 2), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cube_closed_forms(n):
    m = RoiMask(np.ones((n, n, n), dtype=bool))
    f = shape_features(m, (1.0, 1.0, 1.0))
    v = float(n**3)
    a = 6.0 * n * n
    assert f["Volume"] == pytest.approx(v, abs=1e-12)
    assert f["SurfaceArea"] == pytest.approx(a, abs=1e-12)
    # sphericity of a cube is scale invariant: (36 pi v^2)^(1/3) / a
    expected = (36.0 * math.pi * v * v) ** (1.0 / 3.0) / a
    assert f["Sphericity"] == pytest.approx(expected, abs=1e-12)
    assert f["Sphericity"] == pytest.approx((36.0 * math.pi) ** (1.0 / 3.0) / 6.0, abs=1e-12)
    assert f["Elongation"] == pytest.approx(1.0, abs=1e-12)
    assert f["Flatness"] == pytest.approx(1.0, abs=1e-12)


def test_line_axis_roles():
    line_x = RoiMask(np.ones((4, 1, 1), dtype=bool))
    line_z = RoiMask(np.ones((1, 1, 4), dtype=bool))
    fx = shape_features(line_x, (1.0, 1.0, 1.0))
    fz = shape_features(line_z, (1.0, 1.0, 1.0))
    assert fx["MajorAxisLength"] == pytest.approx(fz["MajorAxisLength"], abs=1e-12)
    assert fx["Maximum3DDiameter"] == pytest.approx(3.0, abs=1e-12)
    assert fz["Maximum3DDiameter"] == pytest.approx(3.0, abs=1e-12)
    assert fx["Elongation"] == 0.0 and fx["Flatness"] == 0.0
    # x-line: planes orthogonal to x hold one voxel each
    assert fx["Maximum2DDiameterRow"] == 0.0
    assert fx["Maximum2DDiameterColumn"] == pytest.approx(3.0, abs=1e-12)
    assert fx["Maximum2DDiameterSlice"] == pytest.approx(3.0, abs=1e-12)


def test_two_voxel_axis_length():
    # centers at x = 0, 1: covariance eigenvalue 0.25 -> major axis 4 * 0.5 = 2
    m = mask_of([1, 1], (2, 1, 1))
    f = shape_features(m, (1.0, 1.0, 1.0))
    assert f["MajorAxisLength"] == pytest.approx(2.0, abs=1e-12)
    assert f["MinorAxisLength"] == 0.0


def brute_surface_area(mask, spacing):
    fg = mask.voxels
    dims = fg.shape
    face = (spacing[1] * spacing[2], spacing[0] * spacing[2], spacing[0] * spacing[1])
    area = 0.0
    for p in np.argwhere(fg):
        for axis in range(3):
            for sign in (-1, 1):
                q = list(p)
                q[axis] += sign
                if not (0 <= q[axis] < dims[axis]) or not fg[tuple(q)]:
                    area += face[axis]
    return area


def test_surface_area_against_per_voxel_count():
    rng = np.random.default_rng(12)
    for _ in range(20):
        dims = tuple(int(rng.integers(1, 6)) for _ in range(3))
        fg = rng.uniform(size=dims) < 0.5
        if not fg.any():
            continue
        m = RoiMask(fg)
        spacing = tuple(float(rng.uniform(0.5, 3.0)) for _ in range(3))
        f = shape_features(m, spacing)
        assert f["SurfaceArea"] == pytest.approx(brute_surface_area(m, spacing), rel=1e-12)


def test_rotation_invariance_90_degrees():
    rng = np.random.default_rng(13)
    fg = rng.uniform(size=(5, 5, 5)) < 0.4
    fg[2, 2, 2] = True
    base = shape_features(RoiMask(fg), (1.0, 1.0, 1.0))
    invariant = ("Volume", "SurfaceArea", "Sphericity", "SurfaceVolumeRatio",
                 "MajorAxisLength", "Elongation", "Flatness", "Maximum3DDiameter")
    for axes in itertools.permutations(range(3)):
        rotated = shape_features(RoiMask(np.transpose(fg, axes)), (1.0, 1.0, 1.0))
        for name in invariant:
            assert rotated[name] == pytest.approx(base[name], abs=1e-9), (name, axes)


def _diameter_masks(rng):
    """Random masks with holes, then lines, planes, single voxels and solid boxes."""
    for _ in range(300):
        dims = tuple(int(rng.integers(1, 9)) for _ in range(3))
        fg = rng.uniform(size=dims) < rng.uniform(0.1, 0.95)
        fg[tuple(int(rng.integers(0, d)) for d in dims)] = True
        yield fg
    for _ in range(60):
        dims = [int(rng.integers(1, 9)) for _ in range(3)]
        flat = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
        for axis in flat:
            dims[axis] = 1  # one flat axis gives a plane, two give a line
        fg = np.zeros([d + 2 for d in dims], dtype=bool)
        fg[1:-1, 1:-1, 1:-1] = rng.uniform(size=dims) < rng.uniform(0.5, 1.0)
        fg[1, 1, 1] = True
        yield fg
    for _ in range(20):
        fg = np.zeros(tuple(int(rng.integers(1, 7)) for _ in range(3)), dtype=bool)
        fg[tuple(int(rng.integers(0, d)) for d in fg.shape)] = True
        yield fg
    for _ in range(20):
        fg = np.ones(tuple(int(rng.integers(1, 7)) for _ in range(3)), dtype=bool)
        hole = tuple(int(rng.integers(0, d)) for d in fg.shape)
        fg[hole] = fg.size == 1
        yield fg


def test_diameters_match_all_pairs_oracle():
    rng = np.random.default_rng(14)
    checked = 0
    for fg in _diameter_masks(rng):
        spacing = tuple(float(rng.uniform(0.3, 3.0)) for _ in range(3))
        f = shape_features(RoiMask(fg), spacing)
        ref = bf_diameters(fg, spacing)
        for name in DIAMETERS:
            assert f[name] == ref[name], (checked, name, f[name], ref[name])
        checked += 1
    assert checked == 400


def test_diameters_match_all_pairs_oracle_on_ellipsoid():
    axes = np.ogrid[0:24, 0:24, 0:16]
    q = sum(((g - c) / r) ** 2 for g, c, r in zip(axes, (11.3, 12.1, 7.6), (10.0, 8.5, 5.8)))
    fg = q <= 1.0
    assert 1800 < fg.sum() < 2200
    spacing = (0.75, 0.9, 1.5)
    f = shape_features(RoiMask(fg), spacing)
    ref = bf_diameters(fg, spacing)
    assert {name: f[name] for name in DIAMETERS} == ref


def test_empty_mask_rejected():
    with pytest.raises(DataError, match="foreground"):
        shape_features(mask_of([0], (1, 1, 1)), (1, 1, 1))


def _surface_masks(rng):
    """Random masks of 1-12 voxels per axis, most touching the grid border, then
    single voxels, lines and planes, and solid boxes that fill the grid."""
    for _ in range(1400):
        dims = tuple(int(rng.integers(1, 13)) for _ in range(3))
        fg = rng.uniform(size=dims) < rng.uniform(0.05, 0.95)
        fg[tuple(int(rng.integers(0, d)) for d in dims)] = True
        yield fg
    for _ in range(200):
        fg = np.zeros(tuple(int(rng.integers(1, 13)) for _ in range(3)), dtype=bool)
        fg[tuple(int(rng.integers(0, d)) for d in fg.shape)] = True
        yield fg
    for _ in range(300):
        fg = np.zeros(tuple(int(rng.integers(1, 13)) for _ in range(3)), dtype=bool)
        flat = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
        cut = [slice(None)] * 3
        for axis in flat:  # one flat axis gives a plane, two give a line
            cut[axis] = int(rng.integers(0, fg.shape[axis]))
        fg[tuple(cut)] = rng.uniform(size=fg[tuple(cut)].shape) < rng.uniform(0.5, 1.0)
        fg[tuple(c if isinstance(c, int) else 0 for c in cut)] = True
        yield fg
    for _ in range(100):
        yield np.ones(tuple(int(rng.integers(1, 13)) for _ in range(3)), dtype=bool)


def test_surface_area_from_pairs_equals_the_padded_grid_count():
    rng = np.random.default_rng(15)
    checked = 0
    for fg in _surface_masks(rng):
        spacing = tuple(float(rng.uniform(0.3, 3.0)) for _ in range(3))
        area = shape_features(RoiMask(fg), spacing)["SurfaceArea"]
        assert area == padded_surface_area(fg, spacing), (checked, fg.shape, spacing)
        checked += 1
    assert checked == 2000


def test_max_pairwise_equals_the_summed_axis_oracle():
    # the squares summed one axis at a time give np.sum's bits, across the 512-point blocks too
    rng = np.random.default_rng(15)
    for n in (0, 1, 2, 3, 17, 511, 512, 513, 1100):
        for width in (2, 3):
            points = rng.normal(size=(n, width)) * rng.uniform(0.1, 10.0, size=width)
            assert _max_pairwise(points) == bf_max_pairwise(points), (n, width)
            grid = rng.integers(0, 40, size=(n, width)) * rng.uniform(0.3, 3.0, size=width)
            assert _max_pairwise(grid) == bf_max_pairwise(grid), (n, width)
