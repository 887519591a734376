"""Texture-matrix features over a discretized ROI: GLCM, GLRLM, GLSZM, GLDM.

One engine serves all four families. Its geometry is the ROI's 26-neighbor
index pairs (voxel, voxel + d) for the 13 directions d of ``DIRECTIONS_13``.
The pairs depend on the mask alone, so they are built once per mask
(:attr:`RoiMask.neighbor_pairs`, with their count per direction) and shared by
the original image and its wavelet subbands; a :class:`DiscretizedRoi` holds
its mask and reads the coordinates, voxel count and pairs from there. The gray
levels at both ends of every pair are gathered once per stack
(:attr:`DiscretizedRoi.pair_levels`); the equal-level pairs and GLCM's codes
both read them. The kernels take a stack: the
gray levels of k images under one mask as a ``(k, n_roi)`` array
(:func:`discretize_rows`), and :func:`texture_rows` returns one row of
features per image. Each family is a few whole-array numpy operations over
the pairs of every row at once, with no loop over images, directions or gray
levels; voxel v of row r is node ``r * n_roi + v``. Features follow
pyradiomics (van Griethuysen et al., Cancer Research 2017):

* GLCM: the symmetric co-occurrence matrices (Ng x Ng) of every row and
  every direction with a voxel pair, each pair counted at (i, j) and at
  (j, i); the matrices are numbered over those directions only. When the two
  codes per pair are fewer than the matrices' cells (small ROIs), the
  occupied cells are their sorted distinct codes (:meth:`_Cells.from_codes`);
  otherwise (large ROIs) one ``bincount`` of one orientation plus its
  transpose, which costs less than sorting both. Either way the cells come
  in the same order with the same counts. The features are evaluated on
  the occupied cells only: sums over cells are weighted ``bincount``s per
  matrix, and the marginals (px, p_{x+y}, p_{x-y}) are summed from the
  cells. They are averaged over the directions that have a voxel pair,
  which depends on the mask alone; if no direction has one, every GLCM
  feature is 0 by convention. ``Correlation`` is 1 by convention when the
  marginal has zero variance.
* GLRLM: a run of two or more voxels is a chain of equal-level pairs along
  one direction. One walk along those chains measures them for every row and
  all 13 directions at once; it visits the voxels in chains only, not all
  13 * n_roi (voxel, direction) nodes. Every other voxel is a run of length
  1, so that column is a level's voxel count less the voxels in chains (a
  chain's pairs plus its first voxel): integer counts, exact. The features
  are averaged over the 13 directions.
* GLSZM: zones are 26-connected components of equal gray level, found by
  root hooking and shortcutting over the equal-level pairs of all rows
  (Shiloach and Vishkin, J. Algorithms 1982): each round hooks every root to
  the smallest root across its pairs, then points every voxel at its root.
  An 11k-voxel ROI and its wavelet subbands take 3-5 rounds, where min-label
  propagation took 15-48. Each zone is labeled by its smallest voxel.
* GLDM: dependence counts the center voxel plus its 26-neighbors within the
  ROI whose level differs by at most alpha = 0, i.e. its equal-level pairs:
  two ``bincount``s. Its cells, like GLSZM's, come from the voxels' codes.

GLRLM, GLSZM and GLDM share one feature function over the occupied cells of
(gray level i, run length / zone size / dependence j) count matrices, with a
name map per family. Their widths are fixed by the mask: GLRLM the ROI box's
largest extent, GLSZM the ROI's voxel count, GLDM 27.

A row of a stack gives the same bits as the image alone (the k = 1 case,
which :func:`discretize` and :func:`texture_features` are): every sum is
either a weighted ``bincount`` over one matrix's cells in their fixed order or
an elementwise sum along the last axis of a row (never a BLAS product), and
no width depends on the other rows. Only numpy is used. Gray levels are
1-based (1..Ng).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError, DataError
from ..volume import (
    DIRECTIONS_13,
    NeighborPairs,
    RoiMask,
    VolumeImage,
    check_aligned,
    require_nonempty,
)
from .firstorder import bin_levels, entropy_bits

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
    """Quantized ROI: integer gray levels 1..n_bins of one image (``(n_roi,)``)
    or of a stack of images under one mask (``(k, n_roi)``), with voxel v of a
    row at ``mask.coords[v]``. The texture families read the ROI's geometry,
    its coordinates and neighbor pairs, from ``mask``."""

    levels: np.ndarray
    n_bins: int
    mask: RoiMask

    def __post_init__(self):
        if self.n_bins < 2:
            raise ConfigError(f"n_bins must be >= 2, got {self.n_bins}")
        levels = np.asarray(self.levels)
        if levels.dtype.kind not in "iu":
            # a cast would truncate 1.9 to level 1 without a word
            with np.errstate(invalid="ignore"):
                whole = levels.astype(np.int64)
            if not np.array_equal(whole, levels):
                raise DataError("levels must be integer values")
        levels = levels.astype(np.int64, copy=False)
        if levels.size == 0:
            raise DataError("discretized ROI is empty")
        if not (levels.ndim in (1, 2) and levels.shape[-1] == self.mask.count):
            raise DataError("levels and mask disagree")
        if levels.min() < 1 or levels.max() > self.n_bins:
            raise DataError(f"levels out of range 1..{self.n_bins}")
        levels.flags.writeable = False
        object.__setattr__(self, "levels", levels)

    @property
    def rows(self) -> np.ndarray:
        """The levels as a ``(k, n_roi)`` stack, one image per row."""
        return self.levels.reshape(-1, self.mask.count)

    @cached_property
    def pair_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """The gray levels at the two ends of each neighbor pair of the mask,
        ``(rows[:, a], rows[:, b])``, each ``(k, n_pairs)``: gathered once per
        stack, for the equal-level pairs and for GLCM."""
        a, b, _ = self.mask.neighbor_pairs
        # np.take gathers a one-row stack in half the time of rows[:, a]
        return np.take(self.rows, a, axis=1), np.take(self.rows, b, axis=1)

    @cached_property
    def equal_pairs(self) -> NeighborPairs:
        """The neighbor pairs whose two voxels share a gray level, as indices
        into the flattened stack: voxel v of row r is ``r * n_roi + v``."""
        a, b, direction = self.mask.neighbor_pairs
        la, lb = self.pair_levels
        # row-major, as a 2-D np.nonzero would give them
        flat = np.flatnonzero(la == lb)
        if la.shape[0] == 1:  # one row: the flat index is the pair's, and the offset 0
            return NeighborPairs(a[flat], b[flat], direction[flat])
        row = flat // a.size
        pair = flat - row * a.size
        offset = row * self.mask.count
        return NeighborPairs(a[pair] + offset, b[pair] + offset, direction[pair])


def discretize_rows(values: np.ndarray, mask: RoiMask, n_bins: int) -> DiscretizedRoi:
    """Fixed-bin-count quantization of the ROI values of one image
    (``(n_roi,)``) or of each row of a ``(k, n_roi)`` stack into levels 1..n_bins.

    level = min(n_bins, 1 + floor(n_bins * (v - vmin) / (vmax - vmin))) with
    vmin, vmax the row's; a constant row maps every voxel to level 1.
    """
    return DiscretizedRoi(bin_levels(values, n_bins), n_bins, mask)


def discretize(img: VolumeImage, mask: RoiMask, n_bins: int) -> DiscretizedRoi:
    """Quantize one image's ROI intensities (see :func:`discretize_rows`)."""
    check_aligned(img, mask)
    require_nonempty(mask)
    return discretize_rows(img.voxels[mask.voxels], mask, n_bins)


@dataclass(frozen=True)
class _Cells:
    """The occupied cells of m count matrices (:func:`_counts`), in row-major
    order, so grouped by matrix."""

    m: int
    matrix: np.ndarray
    i: np.ndarray  # 0-based row (gray level - 1)
    j: np.ndarray  # 0-based column
    count: np.ndarray  # float64

    @classmethod
    def of(cls, count: np.ndarray) -> _Cells:
        m, height, width = count.shape
        occupied = np.flatnonzero(count)
        return cls(m, *_unravel(occupied, height, width), count.ravel()[occupied].astype(np.float64))

    @classmethod
    def from_codes(cls, codes: np.ndarray, shape: tuple[int, int, int]) -> _Cells:
        """The cells of ``_counts(codes, shape)``: from the sorted codes when
        they are fewer than the cells, else from the dense counts. Both give
        the same cells in the same order with the same counts, so the choice
        cannot move a bit."""
        m, height, width = shape
        n_cells = m * height * width
        if codes.size >= n_cells:
            return cls.of(_counts(codes, shape))
        # the sort is most of the cost, and int32 halves it where the cells fit
        codes = codes.astype(np.int32 if n_cells <= 1 << 31 else np.int64).ravel()
        codes.sort()
        # the cells' bounds: where the sorted codes change, and both ends
        bound = np.empty(codes.size + 1, dtype=bool)
        bound[[0, -1]] = True
        np.not_equal(codes[1:], codes[:-1], out=bound[1:-1])
        bound = np.flatnonzero(bound)
        count = (bound[1:] - bound[:-1]).astype(np.float64)
        return cls(m, *_unravel(codes[bound[:-1]].astype(np.intp), height, width), count)

    def per_matrix(self, weights: np.ndarray) -> np.ndarray:
        """Sum of ``weights`` (one per cell) over each matrix's cells, in cell order."""
        return np.bincount(self.matrix, weights=weights, minlength=self.m)

    def marginal(self, index: np.ndarray, width: int) -> np.ndarray:
        """``(m, width)`` sums of the cell counts by ``index``; integer counts,
        so exact in any order."""
        return np.bincount(self.matrix * width + index, weights=self.count, minlength=self.m * width).reshape(
            self.m, width
        )


def _unravel(flat: np.ndarray, height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (matrix, i, j) of flat indices into ``(m, height, width)`` arrays.
    Floor division by a scalar is fast in numpy, ``%`` and ``divmod`` are
    not, so each remainder is taken by a product."""
    row = flat // width  # matrix * height + i
    matrix = row // height
    return matrix, row - matrix * height, flat - row * width


def _counts(codes: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Histogram of flat indices into an array of ``shape``."""
    return np.bincount(codes.ravel(), minlength=int(np.prod(shape))).reshape(shape)


def _dot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sum of x * w along the last axis: an elementwise sum, not a BLAS
    product, so each row's result does not depend on the other rows."""
    return (x * w).sum(axis=-1)


# ---------------------------------------------------------------------------
# GLCM


def _diff_weights(ng: int) -> np.ndarray:
    """Weights of |i - j| = 0..Ng-1 of the features that are sums over p_diff:
    Contrast, DifferenceAverage, Id, Idm, Idmn, Idn, InverseVariance."""
    k = np.arange(0, ng, dtype=np.float64)
    inverse_square = np.zeros(ng)
    inverse_square[1:] = 1.0 / k[1:] ** 2
    idmn = 1.0 / (1.0 + (k / ng) ** 2)
    idn = 1.0 / (1.0 + k / ng)
    return np.stack([k**2, k, 1.0 / (1.0 + k), 1.0 / (1.0 + k**2), idmn, idn, inverse_square])


def _glcm_features(cells: _Cells, ng: int, total: np.ndarray) -> dict[str, np.ndarray]:
    """The 22 GLCM features of each of m symmetric count matrices (Ng x Ng),
    matrix k summing to ``total[k]``.

    px is a matrix's marginal over levels 1..Ng, p_sum its distribution of
    i + j (2..2Ng) and p_diff that of |i - j| (0..Ng-1). Symmetry makes the
    two marginals equal: px = py, so ux = uy, sigx = sigy and HX = HY. The
    features that read single cells are sums and maxima over the occupied
    cells, not over all Ng x Ng of them.
    """
    m = cells.m
    iv = np.arange(1, ng + 1, dtype=np.float64)
    k_sum = np.arange(2, 2 * ng + 1, dtype=np.float64)
    k_diff = np.arange(0, ng, dtype=np.float64)
    scale = total[:, None]
    px = cells.marginal(cells.i, ng) / scale
    p_sum = cells.marginal(cells.i + cells.j, 2 * ng - 1) / scale
    p_diff = cells.marginal(np.abs(cells.i - cells.j), ng) / scale
    p = cells.count / total[cells.matrix]

    ux = _dot(px, iv)
    var_x = _dot(px, np.square(iv - ux[:, None]))
    hx = entropy_bits(px)
    hxy = -cells.per_matrix(p * np.log2(p))
    # HXY1 = -sum p log2(px py) and HXY2 = -sum px py log2(px py) both equal HX + HY
    hxy12 = 2.0 * hx
    autocorr = cells.per_matrix(p * ((cells.i + 1) * (cells.j + 1)))
    shifted = k_sum - 2.0 * ux[:, None]
    p_shift2 = p_sum * np.square(shifted)
    by_diff = _dot(p_diff[:, None, :], _diff_weights(ng))
    diff_avg = by_diff[:, 1]
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
        "ClusterProminence": _dot(p_shift2, np.square(shifted)),
        "ClusterShade": _dot(p_shift2, shifted),
        "ClusterTendency": p_shift2.sum(axis=-1),
        "Contrast": by_diff[:, 0],
        "Correlation": correlation,
        "DifferenceAverage": diff_avg,
        "DifferenceEntropy": entropy_bits(p_diff),
        "DifferenceVariance": _dot(p_diff, np.square(k_diff - diff_avg[:, None])),
        "Id": by_diff[:, 2],
        "Idm": by_diff[:, 3],
        "Idmn": by_diff[:, 4],
        "Idn": by_diff[:, 5],
        "Imc1": imc1,
        "Imc2": imc2,
        "InverseVariance": by_diff[:, 6],
        "JointAverage": ux,
        "JointEnergy": cells.per_matrix(p * p),
        "JointEntropy": hxy,
        # every matrix has a cell, so matrix k's cells start where k sorts in
        "MaximumProbability": np.maximum.reduceat(p, np.searchsorted(cells.matrix, np.arange(m))),
        "SumEntropy": entropy_bits(p_sum),
        "SumSquares": var_x,
    }


def _cooccurrence_cells(droi: DiscretizedRoi, has_pair: np.ndarray) -> _Cells:
    """The occupied cells of the symmetric co-occurrence matrices of every
    (row, direction with a pair), in that order: a pair is counted at
    (la, lb) and at (lb, la)."""
    ng = droi.n_bins
    k = droi.rows.shape[0]
    direction = droi.mask.neighbor_pairs.direction
    la, lb = droi.pair_levels
    n_dir = np.count_nonzero(has_pair)
    rank = np.zeros(len(DIRECTIONS_13), dtype=np.intp)
    rank[has_pair] = np.arange(n_dir)
    shape = (k * n_dir, ng, ng)
    # cell (i, j) of matrix r * n_dir + (the rank of the pair's direction
    # among those with a pair) has code (matrix * ng + i) * ng + j, with
    # i = la - 1 and j = lb - 1: la * ng + lb plus a lead of
    # matrix * ng^2 - ng - 1. The codes are built in place: fresh
    # temporaries of a large ROI's pairs cost page faults.
    lead = np.take((np.arange(k)[:, None] * n_dir + rank) * ng * ng - (ng + 1), direction, axis=1)
    # with fewer codes than cells, sort the codes of both orientations;
    # otherwise count one orientation densely and add its transpose
    sparse = 2 * lead.size < shape[0] * ng * ng
    orientations = ((la, lb), (lb, la)) if sparse else ((la, lb),)
    codes = np.empty((len(orientations),) + lead.shape, dtype=np.int64)
    for out, (i, j) in zip(codes, orientations):
        np.multiply(i, ng, out=out)
        out += j
        out += lead
    if sparse:
        return _Cells.from_codes(codes, shape)
    count = _counts(codes, shape)
    count += count.transpose(0, 2, 1)  # numpy buffers the overlapping operand
    return _Cells.of(count)


def _glcm(droi: DiscretizedRoi) -> dict[str, np.ndarray]:
    k = droi.rows.shape[0]
    n_pairs = droi.mask.pairs_per_direction
    # which directions have a pair depends on the mask alone, so it is the
    # same for every row; directions without one are left out of the mean
    has_pair = n_pairs > 0
    if not has_pair.any():
        return {name: np.zeros(k) for name in GLCM_FEATURES}
    # each matrix sums to twice its direction's pair count
    total = np.empty((k, np.count_nonzero(has_pair)))
    total[:] = 2.0 * n_pairs[has_pair]
    return _glcm_features(_cooccurrence_cells(droi, has_pair), droi.n_bins, total.ravel())


# ---------------------------------------------------------------------------
# GLRLM, GLSZM, GLDM


def _ilm_features(cells: _Cells, ng: int, width: int, n_voxels: int) -> dict[str, np.ndarray]:
    """Statistics of (gray level i, run/size/dependence j) count matrices of
    ``width`` columns, from their occupied cells.

    Every statistic is an array over the matrices. ``percentage`` is the entry
    count over ``n_voxels``.
    """
    gi = np.arange(1, ng + 1, dtype=np.float64)
    sj = np.arange(1, width + 1, dtype=np.float64)
    gi2 = gi**2
    sj2 = sj**2
    pg = cells.marginal(cells.i, ng)
    pj = cells.marginal(cells.j, width)
    n = pg.sum(axis=1)
    mu_g = _dot(pg, gi) / n
    mu_j = _dot(pj, sj) / n
    by_small = cells.count / sj2[cells.j]
    by_large = cells.count * sj2[cells.j]
    q = cells.count / n[cells.matrix]
    return {
        "gln": _dot(pg, pg) / n,
        "glnn": _dot(pg, pg) / n**2,
        "jn": _dot(pj, pj) / n,
        "jnn": _dot(pj, pj) / n**2,
        "glv": _dot(pg, np.square(gi - mu_g[:, None])) / n,
        "jv": _dot(pj, np.square(sj - mu_j[:, None])) / n,
        "entropy": -cells.per_matrix(q * np.log2(q)),
        "low": _dot(pg, 1.0 / gi2) / n,
        "high": _dot(pg, gi2) / n,
        "small": _dot(pj, 1.0 / sj2) / n,
        "large": _dot(pj, sj2) / n,
        "small_low": cells.per_matrix(by_small / gi2[cells.i]) / n,
        "small_high": cells.per_matrix(by_small * gi2[cells.i]) / n,
        "large_low": cells.per_matrix(by_large / gi2[cells.i]) / n,
        "large_high": cells.per_matrix(by_large * gi2[cells.i]) / n,
        "percentage": n / n_voxels,
    }


def max_run_length(coords: np.ndarray) -> int:
    """The longest run a ROI can hold in any direction: its box's largest extent."""
    return int((coords.max(axis=0) - coords.min(axis=0)).max()) + 1


def run_length_counts(droi: DiscretizedRoi) -> np.ndarray:
    """The (gray level, run length) counts of every (row, direction), as
    ``(k * 13, Ng, max_run_length)`` in that order."""
    # node d * k * n + u is voxel u of the flattened stack seen along
    # direction d; a chain of equal-level pairs starts at a node no pair reaches
    k, n = droi.rows.shape
    n_dir = len(DIRECTIONS_13)
    a, b, direction = droi.equal_pairs
    src = direction * (k * n) + a
    dst = direction * (k * n) + b
    link_from = np.full(n_dir * k * n, -1, dtype=np.intp)  # the pair leaving each node
    link_from[src] = np.arange(src.size)
    reached = np.zeros(n_dir * k * n, dtype=bool)
    reached[dst] = True
    first = np.flatnonzero(~reached[src])
    lengths = np.full(first.size, 2, dtype=np.intp)
    running = np.arange(first.size)
    nxt = link_from[dst[first]]
    while True:
        on = nxt >= 0
        running = running[on]
        if not running.size:
            break
        lengths[running] += 1
        nxt = link_from[dst[nxt[on]]]
    n_len = max_run_length(droi.mask.coords)
    ng = droi.n_bins
    levels = droi.levels.ravel()
    # one matrix per (row, direction); the pairs never cross rows
    start = a[first]
    key = (start // n * n_dir + direction[first]) * ng + levels[start] - 1
    count = _counts(key * n_len + lengths - 1, (k * n_dir, ng, n_len))
    # length 1: a row's voxels of each level less those in chains
    in_chains = _counts((a // n * n_dir + direction) * ng + levels[a] - 1, (k * n_dir, ng))
    in_chains += _counts(key, (k * n_dir, ng))
    per_level = _counts(np.arange(k * n) // n * ng + levels - 1, (k, 1, ng))
    count[:, :, 0] = (per_level - in_chains.reshape(k, n_dir, ng)).reshape(k * n_dir, ng)
    return count


def _glrlm(droi: DiscretizedRoi) -> dict[str, np.ndarray]:
    count = run_length_counts(droi)
    return _ilm_features(_Cells.of(count), droi.n_bins, count.shape[2], droi.rows.shape[1])


def size_zone_counts(droi: DiscretizedRoi) -> np.ndarray:
    """The (gray level, zone size) counts of every row, as ``(k, Ng, n_roi)``."""
    return _counts(*_zone_codes(droi))


def _zone_codes(droi: DiscretizedRoi) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Each zone's flat index into the ``(k, Ng, n_roi)`` (gray level, zone
    size) counts, and that shape. The zones are never more than the voxels,
    so these codes are fewer than the matrices' cells."""
    # parent[x] <= x is a voxel of x's zone, so each zone's tree ends rooted
    # at its smallest voxel; the pairs never cross rows, nor do the trees
    k, n = droi.rows.shape
    a, b, _ = droi.equal_pairs
    parent = np.arange(k * n)
    while True:
        ra = parent[a]
        rb = parent[b]
        apart = np.flatnonzero(ra != rb)
        if not apart.size:
            break
        # a pair whose roots met stays joined: drop it
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, ra, rb)
        np.minimum.at(parent, rb, ra)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    sizes = np.bincount(parent, minlength=k * n)
    zones = np.flatnonzero(sizes)
    ng = droi.n_bins
    # no zone is larger than the ROI
    codes = (zones // n * ng + droi.levels.ravel()[zones] - 1) * n + sizes[zones] - 1
    return codes, (k, ng, n)


def _glszm(droi: DiscretizedRoi) -> dict[str, np.ndarray]:
    n = droi.rows.shape[1]
    return _ilm_features(_Cells.from_codes(*_zone_codes(droi)), droi.n_bins, n, n)


_MAX_DEPENDENCE = 1 + 2 * len(DIRECTIONS_13)  # the voxel and its 26 neighbors


def _dependence_codes(droi: DiscretizedRoi) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Each voxel's flat index into the ``(k, Ng, 27)`` (gray level,
    dependence) counts, and that shape."""
    k, n = droi.rows.shape
    a, b, _ = droi.equal_pairs
    dependence = 1 + np.bincount(a, minlength=k * n) + np.bincount(b, minlength=k * n)
    ng = droi.n_bins
    codes = (np.arange(k * n) // n * ng + droi.levels.ravel() - 1) * _MAX_DEPENDENCE + dependence - 1
    return codes, (k, ng, _MAX_DEPENDENCE)


def _gldm(droi: DiscretizedRoi) -> dict[str, np.ndarray]:
    cells = _Cells.from_codes(*_dependence_codes(droi))
    return _ilm_features(cells, droi.n_bins, _MAX_DEPENDENCE, droi.rows.shape[1])


_DISPATCH = {"glcm": _glcm, "glrlm": _glrlm, "glszm": _glszm, "gldm": _gldm}
_NAMES = {"glcm": {name: name for name in GLCM_FEATURES}, **_ILM_NAMES}


def texture_rows(droi: DiscretizedRoi, family: str) -> np.ndarray:
    """One texture family's features for each row of a discretized stack, as
    ``(k, n_features)`` in ``FAMILY_FEATURES[family]`` order.

    GLCM and GLRLM report each feature's mean over directions.
    """
    family = family.lower()
    if family not in _DISPATCH:
        raise ConfigError(f"unknown texture family {family!r} (expected one of {TEXTURE_FAMILIES})")
    values = _DISPATCH[family](droi)
    k = droi.rows.shape[0]
    # (features, k, matrices per row): each mean runs along one row's matrices
    return np.stack([values[key].reshape(k, -1) for key in _NAMES[family].values()]).mean(axis=-1).T


def texture_features(droi: DiscretizedRoi, family: str) -> dict[str, float]:
    """Compute one texture family's feature set for one image's discretized ROI."""
    if droi.levels.ndim != 1:
        raise DataError("texture_features takes one image; use texture_rows for a stack")
    row = texture_rows(droi, family)[0]
    return dict(zip(_NAMES[family.lower()], row.tolist()))
