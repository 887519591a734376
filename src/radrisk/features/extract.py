"""Full per-image feature extraction: one float row per image, in the order
of ``feature_names(config)``, named by the grammar ``<filter>-<class>-<feature>``.
The image tag (``Plan-mr`` ...) is attached where the rows are assembled.

An original-only run emits 98 features per image (14 shape + 16 first-order +
22 GLCM + 16 GLRLM + 16 GLSZM + 14 GLDM). With wavelet subbands enabled, the
intensity classes are re-extracted on each of the 8 subbands under the
original mask (shape is mask-only and extracted once), for 98 + 8*84 = 770.

The intensity classes read ROI voxels only, so they run on the ROI's bounding
box, cut out before the wavelet. Each subband filter is causal: output voxel n
reads input voxels n - k, 0 <= k < filter length, along each axis. The box
reaches filter length - 1 voxels below the ROI on each axis, which makes every
subband value in the ROI bit-identical to the full-volume one. Where that
margin would cross index 0, the full-volume convolution wraps around the
volume edge, and the box keeps the whole axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError
from ..volume import RoiMask, VolumeImage, check_aligned, require_nonempty
from ..wavelet import SUBBAND_LABELS, decompose, get_bank
from .firstorder import FIRSTORDER_FEATURES, firstorder_features
from .shape import SHAPE_FEATURES, shape_features
from .texture import FAMILY_FEATURES, TEXTURE_FAMILIES, discretize, texture_features


@dataclass(frozen=True)
class ExtractionConfig:
    n_bins: int = 32
    wavelet: str | None = "haar"  # a bank name ("haar", "coif1"), or None for no wavelet


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


def _intensity_block(img: VolumeImage, mask: RoiMask, n_bins: int, out: np.ndarray) -> None:
    fo = firstorder_features(img, mask)
    values = [fo[name] for name in FIRSTORDER_FEATURES]
    droi = discretize(img, mask, n_bins)
    for family in TEXTURE_FAMILIES:
        feats = texture_features(droi, family)
        values.extend(feats[name] for name in FAMILY_FEATURES[family])
    out[:] = values


def _roi_box(mask: RoiMask, margin: int) -> tuple[slice, ...]:
    """The ROI's bounding box, extended ``margin`` voxels on the low side of each axis."""
    lo = mask.coords.min(axis=0) - margin
    hi = mask.coords.max(axis=0) + 1
    return tuple(slice(int(l), int(h)) if l >= 0 else slice(None) for l, h in zip(lo, hi))


def extract_all(img: VolumeImage, mask: RoiMask, config: ExtractionConfig) -> np.ndarray:
    """Extract the full feature row of one (volume, mask) pair, in ``feature_names(config)`` order."""
    check_aligned(img, mask)
    require_nonempty(mask)
    bank = None if config.wavelet is None else get_bank(config.wavelet)
    images = 1 + (len(SUBBAND_LABELS) if bank else 0)  # the original image and its subbands
    row = np.empty(len(SHAPE_FEATURES) + images * _INTENSITY_WIDTH)
    sh = shape_features(mask, img.spacing)
    row[: len(SHAPE_FEATURES)] = [sh[name] for name in SHAPE_FEATURES]
    box = _roi_box(mask, max(bank.low.size, bank.high.size) - 1 if bank else 0)
    img = VolumeImage(img.voxels[box], img.spacing, img.modality)
    mask = RoiMask(mask.voxels[box])
    blocks = row[len(SHAPE_FEATURES) :].reshape(-1, _INTENSITY_WIDTH)
    _intensity_block(img, mask, config.n_bins, blocks[0])
    if bank:
        subbands = decompose(img, bank)
        for label, out in zip(SUBBAND_LABELS, blocks[1:]):
            _intensity_block(subbands[label], mask, config.n_bins, out)
    bad = np.flatnonzero(~np.isfinite(row))
    if bad.size:
        names = feature_names(config)
        raise NumericalError(
            f"non-finite feature values: {[names[k] for k in bad[:5]]}{'...' if bad.size > 5 else ''}"
        )
    return row
