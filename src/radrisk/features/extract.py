"""Full per-image feature extraction: one float row per image, in the order
of ``feature_names(config)``, named by the grammar ``<filter>-<class>-<feature>``.
The image tag (``Plan-mr`` ...) is attached where the rows are assembled.

An original-only run emits 98 features per image (14 shape + 16 first-order +
22 GLCM + 16 GLRLM + 16 GLSZM + 14 GLDM). With wavelet subbands enabled, the
intensity classes are re-extracted on each of the 8 subbands under the
original mask (shape is mask-only and extracted once), for 98 + 8*84 = 770.

Every class reads ROI voxels only, so the wavelet runs on the ROI's bounding
box, and the ROI's values are read from the box at the mask's coordinates,
shifted into it. Texture and shape read the caller's mask, whose voxel order
and neighbor pairs do not depend on where the grid starts. Each filter is
causal: output voxel n reads input voxels n - k, 0 <= k < filter length,
along each axis. The box reaches filter length - 1 voxels below the ROI on
each axis, which makes every subband value in the ROI bit-identical to the
full-volume one. Where that margin would cross index 0, the full-volume
convolution wraps around the volume edge, and the box keeps the whole axis.

The intensity classes of one mask run once over a ``(k, n_roi)`` stack: the
ROI values of the original image and of its subbands, one image per row.
First-order takes one ``np.median`` and one ``np.percentile`` call over the
stack; discretization bins each row by its own range; GLCM counts every
row's pairs in one ``bincount`` and evaluates its features on the occupied
cells only; GLRLM's chain walk, GLSZM's root hooking and GLDM's dependence
counts run over the mask's shared neighbor pairs with a per-image offset.
Each ``(k, 84)`` result is written straight into its rows of the feature row.

A row of a stack is the same bits as that image extracted alone: every
reduction runs along one row (an elementwise sum, never a BLAS product, whose
blocking can depend on the number of rows), and every count matrix's width is
fixed by the mask (GLRLM the ROI box's largest extent, GLSZM the ROI's voxel
count, GLDM 27), never by the stack's largest value. The stack is cut into
chunks whose images together hold at most ``_CHUNK_CELLS`` = 2**17 entries of
the largest per-image array (the mask's neighbor pairs, or a count matrix),
about the pairs of one 10k-voxel ROI. So a large ROI runs one image at a
time, with the memory of the per-image path, while a 30-90-voxel ROI runs all
9 images in one chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NumericalError
from ..volume import DIRECTIONS_13, RoiMask, VolumeImage, check_aligned, require_nonempty
from ..wavelet import SUBBAND_LABELS, decompose, get_bank, subbands
from .firstorder import FIRSTORDER_FEATURES, firstorder_features, firstorder_rows
from .shape import SHAPE_FEATURES, shape_features
from .texture import (
    FAMILY_FEATURES,
    TEXTURE_FAMILIES,
    discretize,
    discretize_rows,
    max_run_length,
    texture_features,
    texture_rows,
)

# The per-image entry points and ``decompose`` stay reachable from this module,
# where callers that wrap extraction's layers by module attribute look them up
# (bench/layers.py); extract_all itself runs the stacked and array kernels.
__all__ = ["ExtractionConfig", "decompose", "discretize", "extract_all", "feature_names", "firstorder_features",
           "texture_features"]


@dataclass(frozen=True)
class ExtractionConfig:
    n_bins: int = 32
    wavelet: str | None = "haar"  # a bank name ("haar", "coif1"), or None for no wavelet

    def __post_init__(self):
        # checked here, before a chunk is sized (--ng 0 on a one-voxel ROI
        # would divide by zero there) or an output directory is made
        if self.n_bins < 2:
            raise ConfigError(f"n_bins must be >= 2, got {self.n_bins}")


_INTENSITY_CLASSES = (("firstorder", FIRSTORDER_FEATURES),) + tuple(
    (family, FAMILY_FEATURES[family]) for family in TEXTURE_FAMILIES
)
_INTENSITY_WIDTH = sum(len(names) for _, names in _INTENSITY_CLASSES)


def feature_names(config: ExtractionConfig) -> list[str]:
    """The tag-free names of ``extract_all``'s row: shape, then the intensity
    classes of the original image, then of each subband in LLL..HHH order."""
    filters = ["original"] + ([f"wavelet-{label}" for label in SUBBAND_LABELS] if config.wavelet else [])
    return [f"original-shape-{name}" for name in SHAPE_FEATURES] + [
        f"{prefix}-{cls}-{name}" for prefix in filters for cls, names in _INTENSITY_CLASSES for name in names
    ]


_CHUNK_CELLS = 1 << 17


def _chunk_rows(mask: RoiMask, n_bins: int) -> int:
    """How many images of one mask an intensity chunk holds: ``_CHUNK_CELLS``
    over the largest per-image array, the mask's neighbor pairs or a dense
    count matrix (GLCM 13 * Ng^2, GLRLM 13 * Ng * extent). GLSZM counts its
    cells from its zones, never more than the voxels."""
    per_image = max(
        mask.neighbor_pairs.a.size,
        len(DIRECTIONS_13) * n_bins * max(n_bins, max_run_length(mask.coords)),
    )
    return max(1, _CHUNK_CELLS // per_image)


def _intensity_rows(values: np.ndarray, mask: RoiMask, n_bins: int) -> np.ndarray:
    """The 84 intensity features of each row of a ``(k, n_roi)`` stack."""
    droi = discretize_rows(values, mask, n_bins)
    return np.hstack([firstorder_rows(values)] + [texture_rows(droi, family) for family in TEXTURE_FAMILIES])


def extract_all(img: VolumeImage, mask: RoiMask, config: ExtractionConfig) -> np.ndarray:
    """Extract the full feature row of one (volume, mask) pair, in ``feature_names(config)`` order."""
    check_aligned(img, mask)
    require_nonempty(mask)
    bank = None if config.wavelet is None else get_bank(config.wavelet)
    start = mask.coords.min(axis=0) - (max(bank.low.size, bank.high.size) - 1 if bank else 0)
    box = tuple(slice(l, h) if l >= 0 else slice(None) for l, h in zip(start.tolist(), mask.coords.max(axis=0) + 1))
    volumes = [img.voxels[box]]  # the original image and its subbands, on the box
    if bank:
        volumes += subbands(volumes[0], bank).values()
    at = tuple((mask.coords - np.maximum(start, 0)).T)
    values = np.stack([volume[at] for volume in volumes])
    row = np.empty(len(SHAPE_FEATURES) + len(volumes) * _INTENSITY_WIDTH)
    blocks = row[len(SHAPE_FEATURES) :].reshape(len(volumes), _INTENSITY_WIDTH)
    step = _chunk_rows(mask, config.n_bins)
    for lo in range(0, len(volumes), step):
        blocks[lo : lo + step] = _intensity_rows(values[lo : lo + step], mask, config.n_bins)
    # after the texture pass, whose neighbor pairs of the mask shape reads
    sh = shape_features(mask, img.spacing)
    row[: len(SHAPE_FEATURES)] = [sh[name] for name in SHAPE_FEATURES]
    bad = np.flatnonzero(~np.isfinite(row))
    if bad.size:
        names = feature_names(config)
        raise NumericalError(
            f"non-finite feature values: {[names[k] for k in bad[:5]]}{'...' if bad.size > 5 else ''}"
        )
    return row
