"""Texture-matrix features over a discretized ROI: GLCM, GLRLM, GLSZM, GLDM.

One engine serves all four families. Its geometry is the ROI's 26-neighbor
index pairs (voxel, voxel + d) for the 13 directions d of ``DIRECTIONS_13``.
The pairs depend on the mask alone, so they are built once per mask
(:attr:`RoiMask.neighbor_pairs`) and shared by the original image and its
wavelet subbands. Each family is then a few whole-array numpy operations over
the pairs, with no loop over directions or gray levels, and features are
evaluated as arrays over a leading axis (the 13 directions for GLCM and GLRLM),
as in pyradiomics (van Griethuysen et al., Cancer Research 2017):

* GLCM: one ``bincount`` of the pairs gives the 13 symmetric co-occurrence
  matrices as one (13, Ng, Ng) array. The 22 features are averaged over the
  directions that have a voxel pair; if no direction has one, every GLCM
  feature is 0 by convention. ``Correlation`` is 1 by convention when either
  marginal is degenerate.
* GLRLM: a run is a chain of equal-level pairs along one direction. One walk
  along the successor links measures every run of all 13 directions at once;
  the features are averaged over the 13 directions.
* GLSZM: zones are 26-connected components of equal gray level, labeled by
  min-label propagation over the equal-level pairs.
* GLDM: dependence counts the center voxel plus its 26-neighbors within the
  ROI whose level differs by at most alpha = 0, i.e. its equal-level pairs.

GLRLM, GLSZM and GLDM share one feature function over (gray level i, run
length / zone size / dependence j) count matrices, with a name map per
family. Only numpy is used. Gray levels are 1-based (1..Ng) as produced by
:func:`discretize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import ConfigError, DataError
from ..volume import (
    DIRECTIONS_13,
    NeighborPairs,
    RoiMask,
    VolumeImage,
    check_aligned,
    neighbor_pairs_of,
    require_nonempty,
)
from .firstorder import bin_levels

TEXTURE_FAMILIES = ("glcm", "glrlm", "glszm", "gldm")

GLCM_FEATURES = (
    "Autocorrelation",
    "ClusterProminence",
    "ClusterShade",
    "ClusterTendency",
    "Contrast",
    "Correlation",
    "DifferenceAverage",
    "DifferenceEntropy",
    "DifferenceVariance",
    "Id",
    "Idm",
    "Idmn",
    "Idn",
    "Imc1",
    "Imc2",
    "InverseVariance",
    "JointAverage",
    "JointEnergy",
    "JointEntropy",
    "MaximumProbability",
    "SumEntropy",
    "SumSquares",
)

# feature name -> key of _ilm_features, in output order
_ILM_NAMES = {
    "glrlm": {
        "GrayLevelNonUniformity": "gln",
        "GrayLevelNonUniformityNormalized": "glnn",
        "GrayLevelVariance": "glv",
        "HighGrayLevelRunEmphasis": "high",
        "LongRunEmphasis": "large",
        "LongRunHighGrayLevelEmphasis": "large_high",
        "LongRunLowGrayLevelEmphasis": "large_low",
        "LowGrayLevelRunEmphasis": "low",
        "RunEntropy": "entropy",
        "RunLengthNonUniformity": "jn",
        "RunLengthNonUniformityNormalized": "jnn",
        "RunPercentage": "percentage",
        "RunVariance": "jv",
        "ShortRunEmphasis": "small",
        "ShortRunHighGrayLevelEmphasis": "small_high",
        "ShortRunLowGrayLevelEmphasis": "small_low",
    },
    "glszm": {
        "GrayLevelNonUniformity": "gln",
        "GrayLevelNonUniformityNormalized": "glnn",
        "GrayLevelVariance": "glv",
        "HighGrayLevelZoneEmphasis": "high",
        "LargeAreaEmphasis": "large",
        "LargeAreaHighGrayLevelEmphasis": "large_high",
        "LargeAreaLowGrayLevelEmphasis": "large_low",
        "LowGrayLevelZoneEmphasis": "low",
        "SizeZoneNonUniformity": "jn",
        "SizeZoneNonUniformityNormalized": "jnn",
        "SmallAreaEmphasis": "small",
        "SmallAreaHighGrayLevelEmphasis": "small_high",
        "SmallAreaLowGrayLevelEmphasis": "small_low",
        "ZoneEntropy": "entropy",
        "ZonePercentage": "percentage",
        "ZoneVariance": "jv",
    },
    "gldm": {
        "DependenceEntropy": "entropy",
        "DependenceNonUniformity": "jn",
        "DependenceNonUniformityNormalized": "jnn",
        "DependenceVariance": "jv",
        "GrayLevelNonUniformity": "gln",
        "GrayLevelVariance": "glv",
        "HighGrayLevelEmphasis": "high",
        "LargeDependenceEmphasis": "large",
        "LargeDependenceHighGrayLevelEmphasis": "large_high",
        "LargeDependenceLowGrayLevelEmphasis": "large_low",
        "LowGrayLevelEmphasis": "low",
        "SmallDependenceEmphasis": "small",
        "SmallDependenceHighGrayLevelEmphasis": "small_high",
        "SmallDependenceLowGrayLevelEmphasis": "small_low",
    },
}

GLRLM_FEATURES = tuple(_ILM_NAMES["glrlm"])
GLSZM_FEATURES = tuple(_ILM_NAMES["glszm"])
GLDM_FEATURES = tuple(_ILM_NAMES["gldm"])

FAMILY_FEATURES = {
    "glcm": GLCM_FEATURES,
    "glrlm": GLRLM_FEATURES,
    "glszm": GLSZM_FEATURES,
    "gldm": GLDM_FEATURES,
}


@dataclass(frozen=True)
class DiscretizedRoi:
    """Quantized ROI: integer gray level per ROI voxel, voxel coordinates, and
    the voxels' neighbor pairs (built from ``coords`` when not given)."""

    levels: np.ndarray
    n_bins: int
    coords: np.ndarray
    spacing: tuple[float, float, float]
    pairs: NeighborPairs | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=np.int64)
        coords = np.asarray(self.coords, dtype=np.int64)
        if levels.size == 0:
            raise DataError("discretized ROI is empty")
        if levels.shape[0] != coords.shape[0] or coords.ndim != 2 or coords.shape[1] != 3:
            raise DataError("levels and coords disagree")
        if levels.min() < 1 or levels.max() > self.n_bins:
            raise DataError(f"levels out of range 1..{self.n_bins}")
        levels.flags.writeable = False
        coords.flags.writeable = False
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        if self.pairs is None:
            object.__setattr__(self, "pairs", neighbor_pairs_of(coords))

    @cached_property
    def equal_pairs(self) -> NeighborPairs:
        """The neighbor pairs whose two voxels share a gray level."""
        a, b, direction = self.pairs
        same = self.levels[a] == self.levels[b]
        return NeighborPairs(a[same], b[same], direction[same])


def discretize(img: VolumeImage, mask: RoiMask, n_bins: int) -> DiscretizedRoi:
    """Fixed-bin-count quantization of ROI intensities into levels 1..n_bins.

    level = min(n_bins, 1 + floor(n_bins * (v - vmin) / (vmax - vmin))); a
    constant ROI maps every voxel to level 1.
    """
    if n_bins < 2:
        raise ConfigError(f"n_bins must be >= 2, got {n_bins}")
    check_aligned(img, mask)
    require_nonempty(mask)
    values = img.voxels[mask.voxels]
    return DiscretizedRoi(bin_levels(values, n_bins), n_bins, mask.coords, img.spacing, mask.neighbor_pairs)


def _entropy(p: np.ndarray) -> np.ndarray:
    """Base-2 entropy over the last axis."""
    logp = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return -(p * logp).sum(axis=-1)


def _counts(codes: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Histogram of flat indices into an array of ``shape``."""
    return np.bincount(codes, minlength=int(np.prod(shape))).reshape(shape).astype(np.float64)


# ---------------------------------------------------------------------------
# GLCM


def _glcm_features(p: np.ndarray, p_sum: np.ndarray, p_diff: np.ndarray) -> dict[str, np.ndarray]:
    """The 22 GLCM features of each normalized symmetric matrix p[k] (Ng x Ng).

    ``p_sum[k]`` is its distribution of i + j (2..2Ng), ``p_diff[k]`` that of
    |i - j| (0..Ng-1). Symmetry makes the two marginals equal: px = py, so
    ux = uy, sigx = sigy and HX = HY.
    """
    m, ng, _ = p.shape
    iv = np.arange(1, ng + 1, dtype=np.float64)
    k_sum = np.arange(2, 2 * ng + 1, dtype=np.float64)
    k_diff = np.arange(0, ng, dtype=np.float64)
    flat = p.reshape(m, ng * ng)
    px = p.sum(axis=2)
    ux = px @ iv
    var_x = (px * (iv - ux[:, None]) ** 2).sum(axis=1)
    hx = _entropy(px)
    hxy = _entropy(flat)
    # HXY1 = -sum p log2(px py) and HXY2 = -sum px py log2(px py) both equal HX + HY
    hxy12 = 2.0 * hx
    diff_avg = p_diff @ k_diff
    autocorr = (p @ iv) @ iv
    shifted = k_sum - 2.0 * ux[:, None]
    correlation = np.ones(m)
    np.divide(autocorr - ux * ux, var_x, out=correlation, where=var_x > 0.0)
    imc1 = np.zeros(m)
    np.divide(hxy - hxy12, hx, out=imc1, where=hx > 0.0)
    # sqrt has an infinite derivative at 0: clamp the exactly-independent case
    # so rounding noise in HXY2 - HXY cannot surface as a spurious ~1e-8 value
    imc2_arg = 1.0 - np.exp(-2.0 * (hxy12 - hxy))
    imc2 = np.sqrt(imc2_arg, out=np.zeros(m), where=imc2_arg > 1e-12)

    return {
        "Autocorrelation": autocorr,
        "ClusterProminence": (p_sum * shifted**4).sum(axis=1),
        "ClusterShade": (p_sum * shifted**3).sum(axis=1),
        "ClusterTendency": (p_sum * shifted**2).sum(axis=1),
        "Contrast": p_diff @ k_diff**2,
        "Correlation": correlation,
        "DifferenceAverage": diff_avg,
        "DifferenceEntropy": _entropy(p_diff),
        "DifferenceVariance": (p_diff * (k_diff - diff_avg[:, None]) ** 2).sum(axis=1),
        "Id": p_diff @ (1.0 / (1.0 + k_diff)),
        "Idm": p_diff @ (1.0 / (1.0 + k_diff**2)),
        "Idmn": p_diff @ (1.0 / (1.0 + (k_diff / ng) ** 2)),
        "Idn": p_diff @ (1.0 / (1.0 + k_diff / ng)),
        "Imc1": imc1,
        "Imc2": imc2,
        "InverseVariance": p_diff[:, 1:] @ (1.0 / k_diff[1:] ** 2),
        "JointAverage": ux,
        "JointEnergy": (flat**2).sum(axis=1),
        "JointEntropy": hxy,
        "MaximumProbability": flat.max(axis=1),
        "SumEntropy": _entropy(p_sum),
        "SumSquares": var_x,
    }


def _glcm(droi: DiscretizedRoi) -> dict[str, np.ndarray]:
    ng = droi.n_bins
    n_dir = len(DIRECTIONS_13)
    a, b, direction = droi.pairs
    n_pairs = np.bincount(direction, minlength=n_dir)
    has_pair = n_pairs > 0
    if not has_pair.any():
        return {name: np.zeros(1) for name in GLCM_FEATURES}
    la = droi.levels[a] - 1
    lb = droi.levels[b] - 1
    # the symmetric matrix counts each pair at (la, lb) and at (lb, la), so it
    # sums to 2 * n_pairs; both entries share the pair's i + j and |i - j|
    mat = _counts((direction * ng + la) * ng + lb, (n_dir, ng, ng))
    mat += mat.transpose(0, 2, 1)
    n = n_pairs[has_pair, None]
    p_sum = _counts(direction * (2 * ng - 1) + la + lb, (n_dir, 2 * ng - 1))[has_pair] / n
    p_diff = _counts(direction * ng + np.abs(la - lb), (n_dir, ng))[has_pair] / n
    return _glcm_features(mat[has_pair] / (2.0 * n[:, :, None]), p_sum, p_diff)


# ---------------------------------------------------------------------------
# GLRLM, GLSZM, GLDM


def _ilm_features(mat: np.ndarray, n_voxels: int) -> dict[str, np.ndarray]:
    """Statistics of (gray level i, run/size/dependence j) count matrices.

    ``mat[k, i - 1, j - 1]`` counts the entries of matrix k; every statistic
    is an array over k. ``percentage`` is the entry count over ``n_voxels``.
    """
    n = mat.sum(axis=(1, 2))
    gi = np.arange(1, mat.shape[1] + 1, dtype=np.float64)
    sj = np.arange(1, mat.shape[2] + 1, dtype=np.float64)
    gi2 = gi**2
    sj2 = sj**2
    pg = mat.sum(axis=2)
    pj = mat.sum(axis=1)
    mu_g = pg @ gi / n
    mu_j = pj @ sj / n
    by_small = mat @ (1.0 / sj2)
    by_large = mat @ sj2
    return {
        "gln": (pg**2).sum(axis=1) / n,
        "glnn": (pg**2).sum(axis=1) / n**2,
        "jn": (pj**2).sum(axis=1) / n,
        "jnn": (pj**2).sum(axis=1) / n**2,
        "glv": (pg * (gi - mu_g[:, None]) ** 2).sum(axis=1) / n,
        "jv": (pj * (sj - mu_j[:, None]) ** 2).sum(axis=1) / n,
        "entropy": _entropy(mat.reshape(mat.shape[0], -1) / n[:, None]),
        "low": pg @ (1.0 / gi2) / n,
        "high": pg @ gi2 / n,
        "small": pj @ (1.0 / sj2) / n,
        "large": pj @ sj2 / n,
        "small_low": by_small @ (1.0 / gi2) / n,
        "small_high": by_small @ gi2 / n,
        "large_low": by_large @ (1.0 / gi2) / n,
        "large_high": by_large @ gi2 / n,
        "percentage": n / n_voxels,
    }


def _glrlm(droi: DiscretizedRoi) -> dict[str, np.ndarray]:
    # node k * n + v is voxel v seen along direction k; succ links it to the
    # next voxel of its run, and a run starts at every node nothing links to
    n = droi.levels.size
    n_nodes = len(DIRECTIONS_13) * n
    a, b, direction = droi.equal_pairs
    node_a = direction * n + a
    node_b = direction * n + b
    succ = np.full(n_nodes, -1, dtype=np.intp)
    succ[node_a] = node_b
    linked = np.zeros(n_nodes, dtype=bool)
    linked[node_b] = True
    starts = np.flatnonzero(~linked)
    lengths = np.ones(starts.size, dtype=np.intp)
    running = np.arange(starts.size)
    nxt = succ[starts]
    while True:
        on = nxt >= 0
        running = running[on]
        if not running.size:
            break
        lengths[running] += 1
        nxt = succ[nxt[on]]
    n_len = int(lengths.max())
    ng = droi.n_bins
    codes = ((starts // n) * ng + droi.levels[starts % n] - 1) * n_len + lengths - 1
    return _ilm_features(_counts(codes, (len(DIRECTIONS_13), ng, n_len)), n)


def _glszm(droi: DiscretizedRoi) -> dict[str, np.ndarray]:
    # every label names a voxel of its own zone; lowering it to the smallest
    # label across each equal-level pair, then following it once, converges
    # to one label per zone
    n = droi.levels.size
    a, b, _ = droi.equal_pairs
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    sizes = np.bincount(label, minlength=n)
    zones = np.flatnonzero(sizes)
    max_size = int(sizes.max())
    codes = (droi.levels[zones] - 1) * max_size + sizes[zones] - 1
    return _ilm_features(_counts(codes, (1, droi.n_bins, max_size)), n)


def _gldm(droi: DiscretizedRoi) -> dict[str, np.ndarray]:
    n = droi.levels.size
    a, b, _ = droi.equal_pairs
    dependence = 1 + np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    max_dep = int(dependence.max())
    codes = (droi.levels - 1) * max_dep + dependence - 1
    return _ilm_features(_counts(codes, (1, droi.n_bins, max_dep)), n)


_DISPATCH = {"glcm": _glcm, "glrlm": _glrlm, "glszm": _glszm, "gldm": _gldm}
_NAMES = {"glcm": {name: name for name in GLCM_FEATURES}, **_ILM_NAMES}


def texture_features(droi: DiscretizedRoi, family: str) -> dict[str, float]:
    """Compute one texture family's feature set for a discretized ROI.

    GLCM and GLRLM report each feature's mean over directions.
    """
    family = family.lower()
    if family not in _DISPATCH:
        raise ConfigError(f"unknown texture family {family!r} (expected one of {TEXTURE_FAMILIES})")
    values = _DISPATCH[family](droi)
    names = _NAMES[family]
    means = np.stack([values[key] for key in names.values()]).mean(axis=1)
    return dict(zip(names, means.tolist()))
