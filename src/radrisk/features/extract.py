"""Full per-image feature extraction with the naming grammar
``<image-tag>-<filter>-<class>-<feature>``.

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
from .texture import TEXTURE_FAMILIES, discretize, texture_features


@dataclass(frozen=True)
class ExtractionConfig:
    n_bins: int = 32
    wavelet: str | None = "haar"  # a bank name ("haar", "coif1"), or None for no wavelet


def _intensity_block(img: VolumeImage, mask: RoiMask, n_bins: int, prefix: str, out: dict) -> None:
    fo = firstorder_features(img, mask)
    for name in FIRSTORDER_FEATURES:
        out[f"{prefix}-firstorder-{name}"] = fo[name]
    droi = discretize(img, mask, n_bins)
    for family in TEXTURE_FAMILIES:
        feats = texture_features(droi, family)
        for name, value in feats.items():
            out[f"{prefix}-{family}-{name}"] = value


def _roi_box(mask: RoiMask, margin: int) -> tuple[slice, ...]:
    """The ROI's bounding box, extended ``margin`` voxels on the low side of each axis."""
    lo = mask.coords.min(axis=0) - margin
    hi = mask.coords.max(axis=0) + 1
    return tuple(slice(int(l), int(h)) if l >= 0 else slice(None) for l, h in zip(lo, hi))


def extract_all(img: VolumeImage, mask: RoiMask, config: ExtractionConfig, tag: str) -> dict[str, float]:
    """Extract the full feature vector of one (volume, mask) pair.

    ``tag`` is the image-role prefix, e.g. "follow-up-mr", "Plan-mr", "Plan-ct".
    Output order is deterministic: shape, then original intensity classes, then
    subband intensity classes in LLL..HHH order.
    """
    check_aligned(img, mask)
    require_nonempty(mask)
    out: dict[str, float] = {}
    sh = shape_features(mask, img.spacing)
    for name in SHAPE_FEATURES:
        out[f"{tag}-original-shape-{name}"] = sh[name]
    bank = None if config.wavelet is None else get_bank(config.wavelet)
    box = _roi_box(mask, max(bank.low.size, bank.high.size) - 1 if bank else 0)
    img = VolumeImage(img.voxels[box], img.spacing, img.modality)
    mask = RoiMask(mask.voxels[box])
    _intensity_block(img, mask, config.n_bins, f"{tag}-original", out)
    if bank:
        subbands = decompose(img, bank)
        for label in SUBBAND_LABELS:
            _intensity_block(subbands[label], mask, config.n_bins, f"{tag}-wavelet-{label}", out)
    bad = [name for name, value in out.items() if not np.isfinite(value)]
    if bad:
        raise NumericalError(f"non-finite feature values: {bad[:5]}{'...' if len(bad) > 5 else ''}")
    return out
