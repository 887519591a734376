"""First-order intensity statistics over an ROI.

Entropy and Uniformity use a fixed 32-bin histogram over the ROI intensity
range (log base 2). Variance is the population variance; Skewness/Kurtosis are
standardized central moments (Kurtosis is not excess-corrected) and defined as
0 for a constant ROI. The moments are means of products of the deviations c
from the mean: m2 of c * c, m3 of c^2 * c and m4 of c^2 * c^2 (Pebay, Sandia
SAND2008-6212), with no libm ``pow``, which took most of a large ROI's
first-order time. Percentiles use linear interpolation, as ``np.percentile``.

The kernel, :func:`firstorder_rows`, takes a ``(k, n_roi)`` stack: the ROI
values of k images under one mask (an original and its wavelet subbands), one
image per row. The median and percentiles are one ``np.median`` and one
``np.percentile`` call along the ROI axis of the whole stack, and every
reduction is an elementwise sum along that axis. A row's values are therefore
the same bits whatever else is stacked with it, and :func:`firstorder_features`
is the k = 1 case.
"""

from __future__ import annotations

import numpy as np

from ..volume import RoiMask, VolumeImage, check_aligned, require_nonempty

ENTROPY_BINS = 32

FIRSTORDER_FEATURES = (
    "Mean",
    "Median",
    "Minimum",
    "Maximum",
    "Range",
    "Variance",
    "Skewness",
    "Kurtosis",
    "Energy",
    "Entropy",
    "Uniformity",
    "RootMeanSquared",
    "MeanAbsoluteDeviation",
    "10Percentile",
    "90Percentile",
    "InterquartileRange",
)


def bin_levels(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Fixed-bin-count quantization of each row (last axis) to integer levels
    1..n_bins; a constant row maps to 1."""
    vmin = values.min(axis=-1, keepdims=True)
    span = values.max(axis=-1, keepdims=True) - vmin
    # a constant row has values - vmin == 0 exactly, so any nonzero divisor gives level 1
    raw = np.floor(n_bins * (values - vmin) / np.where(span > 0.0, span, 1.0)).astype(np.int64) + 1
    return np.minimum(raw, n_bins)


def entropy_bits(p: np.ndarray) -> np.ndarray:
    """Base-2 entropy of each distribution along the last axis (0 log 0 = 0)."""
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def firstorder_rows(values: np.ndarray) -> np.ndarray:
    """The 16 first-order features of each row of a ``(k, n_roi)`` stack, as
    ``(k, 16)`` in ``FIRSTORDER_FEATURES`` order."""
    k, n = values.shape
    mean = values.mean(axis=-1)
    centered = values - mean[:, None]
    c2 = centered * centered
    m2 = c2.mean(axis=-1)
    skewness = np.zeros(k)
    kurtosis = np.zeros(k)
    np.divide((c2 * centered).mean(axis=-1), m2**1.5, out=skewness, where=m2 > 0.0)
    np.divide((c2 * c2).mean(axis=-1), m2**2, out=kurtosis, where=m2 > 0.0)

    codes = bin_levels(values, ENTROPY_BINS) + (np.arange(k) * ENTROPY_BINS - 1)[:, None]
    p = np.bincount(codes.ravel(), minlength=k * ENTROPY_BINS).reshape(k, ENTROPY_BINS) / n

    p10, p25, p75, p90 = np.percentile(values, [10, 25, 75, 90], axis=-1)
    vmin = values.min(axis=-1)
    vmax = values.max(axis=-1)
    squares = values**2
    return np.stack(
        [
            mean,
            np.median(values, axis=-1),
            vmin,
            vmax,
            vmax - vmin,
            m2,
            skewness,
            kurtosis,
            squares.sum(axis=-1),
            entropy_bits(p),
            (p**2).sum(axis=-1),
            np.sqrt(squares.mean(axis=-1)),
            np.abs(centered).mean(axis=-1),
            p10,
            p90,
            p75 - p25,
        ],
        axis=1,
    )


def firstorder_features(img: VolumeImage, mask: RoiMask) -> dict[str, float]:
    """Compute the 16 first-order features for one (volume, mask) pair."""
    check_aligned(img, mask)
    require_nonempty(mask)
    row = firstorder_rows(img.voxels[mask.voxels][None])[0]
    return dict(zip(FIRSTORDER_FEATURES, row.tolist()))
