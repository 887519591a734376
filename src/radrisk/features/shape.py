"""Morphological features of a binary ROI on a spaced voxel grid.

Conventions (documented because they differ from mesh-based tools):

* ``Volume`` is voxel count times voxel volume; ``SurfaceArea`` counts exposed
  voxel faces, along each axis two per voxel less two per neighbor pair along
  it (:attr:`RoiMask.pairs_per_direction`, which GLCM reads too), with no pass
  over the voxel grid. Both are exact on the voxel grid.
* Axis lengths are ``4 * sqrt(lambda)`` of the physical-coordinate covariance
  eigenvalues of voxel centers (population covariance, descending eigenvalues).
* For a single-voxel ROI the covariance vanishes: axis lengths are 0 and
  ``Elongation``/``Flatness`` are defined as 0.
* Diameters are maximal pairwise distances between voxel centers;
  ``Maximum2DDiameterRow/Column/Slice`` restrict pairs to planes orthogonal to
  the x / y / z axis respectively (0 when every such plane holds one voxel).
* Diameters are searched over hull-candidate voxels only, and the result is
  exact. The farthest pair of a point set lies on vertices of its convex
  hull. A voxel whose two 26-neighbors along some direction d are both in
  the ROI is the midpoint of those two, so it is no hull vertex. The 3D
  search keeps voxels that are no such midpoint along any of the 13
  directions; the search in planes orthogonal to an axis keeps voxels that
  are none along the 4 directions within the plane. Both read the mask's
  neighbor pairs (:attr:`RoiMask.neighbor_pairs`), as the surface area does.
* A squared distance is summed one axis at a time, in axis order: the order,
  and so the bits, of ``np.sum`` over a 3-wide axis, without its temporary of
  every pair's three squares.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataError, NumericalError
from ..volume import DIRECTIONS_13, RoiMask, require_nonempty

SHAPE_FEATURES = (
    "Volume",
    "SurfaceArea",
    "SurfaceVolumeRatio",
    "Sphericity",
    "SphericalDisproportion",
    "MajorAxisLength",
    "MinorAxisLength",
    "LeastAxisLength",
    "Elongation",
    "Flatness",
    "Maximum3DDiameter",
    "Maximum2DDiameterRow",
    "Maximum2DDiameterColumn",
    "Maximum2DDiameterSlice",
)


def _surface_area(mask: RoiMask, spacing) -> float:
    sx, sy, sz = spacing
    face = (sy * sz, sx * sz, sx * sy)
    # DIRECTIONS_13 begins with the unit steps along the three axes
    along = mask.pairs_per_direction
    area = 0.0
    for axis in range(3):
        area += int(2 * (mask.count - along[axis])) * face[axis]
    return area


def _hull_candidates(mask: RoiMask) -> tuple[np.ndarray, list[np.ndarray]]:
    """Whether each ROI voxel may be a hull vertex: of the whole ROI, and of
    its planes orthogonal to each axis. A voxel is not when it is the midpoint
    of a neighbor pair along a direction (within the plane)."""
    a, b, direction = mask.neighbor_pairs
    has_next = np.zeros((len(DIRECTIONS_13), mask.coords.shape[0]), dtype=bool)
    has_next[direction, a] = True
    has_prev = np.zeros_like(has_next)
    has_prev[direction, b] = True
    midpoint = has_next & has_prev
    in_plane = np.asarray(DIRECTIONS_13) == 0  # [d, axis]: d lies in the planes orthogonal to axis
    return ~midpoint.any(axis=0), [~midpoint[in_plane[:, axis]].any(axis=0) for axis in range(3)]


def _max_pairwise(points: np.ndarray) -> float:
    if points.shape[0] < 2:
        return 0.0
    best = 0.0
    # blocked to bound memory on large ROIs
    step = 512
    for i in range(0, points.shape[0], step):
        chunk = points[i : i + step]
        # one axis at a time, in np.sum's order over the axis: the same bits
        diff = np.subtract.outer(chunk[:, 0], points[:, 0])
        d2 = diff * diff
        for axis in range(1, points.shape[1]):
            np.subtract.outer(chunk[:, axis], points[:, axis], out=diff)
            diff *= diff
            d2 += diff
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def shape_features(mask: RoiMask, spacing) -> dict[str, float]:
    """Compute the 14 shape features for one ROI."""
    require_nonempty(mask)
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or any(s <= 0 for s in spacing):
        raise DataError(f"spacing must be three positive floats, got {spacing}")
    coords = mask.coords
    n = coords.shape[0]

    volume = n * spacing[0] * spacing[1] * spacing[2]
    area = _surface_area(mask, spacing)
    try:
        sphericity = (36.0 * math.pi * volume**2) ** (1.0 / 3.0) / area
        disproportion = 1.0 / sphericity
        surface_ratio = area / volume
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalError(f"the volume or surface area leaves the float range at spacing {spacing}") from exc

    # a spacing read from a file may be any finite size; an overflowing moment is raised here, not in eigvalsh
    with np.errstate(over="ignore", invalid="ignore"):
        phys = coords.astype(np.float64) * np.asarray(spacing)
        centered = phys - phys.mean(axis=0)
        cov = centered.T @ centered / n
    if not np.isfinite(cov).all():
        raise NumericalError(f"the covariance of voxel positions overflows at spacing {spacing}")
    eig = np.linalg.eigvalsh(cov)[::-1]
    eig = np.clip(eig, 0.0, None)
    major, minor, least = (4.0 * math.sqrt(v) for v in eig)
    if eig[0] > 0.0:
        elongation = math.sqrt(eig[1] / eig[0])
        flatness = math.sqrt(eig[2] / eig[0])
    else:
        elongation = 0.0
        flatness = 0.0

    hull3d, hull2d = _hull_candidates(mask)
    # a squared distance may overflow at a large spacing: raised below, not warned by numpy
    with np.errstate(over="ignore"):
        diam3d = _max_pairwise(phys[hull3d])
        plane_diams = []
        for axis, candidates in enumerate(hull2d):
            keep = [a for a in range(3) if a != axis]
            pts = phys[candidates][:, keep]
            planes = coords[candidates, axis]
            best = 0.0
            for value in np.unique(planes):
                best = max(best, _max_pairwise(pts[planes == value]))
            plane_diams.append(best)
    if not math.isfinite(max(diam3d, *plane_diams)):
        raise NumericalError(f"a squared diameter leaves the float range at spacing {spacing}")

    return {
        "Volume": volume,
        "SurfaceArea": area,
        "SurfaceVolumeRatio": surface_ratio,
        "Sphericity": sphericity,
        "SphericalDisproportion": disproportion,
        "MajorAxisLength": major,
        "MinorAxisLength": minor,
        "LeastAxisLength": least,
        "Elongation": elongation,
        "Flatness": flatness,
        "Maximum3DDiameter": diam3d,
        "Maximum2DDiameterRow": plane_diams[0],
        "Maximum2DDiameterColumn": plane_diams[1],
        "Maximum2DDiameterSlice": plane_diams[2],
    }
