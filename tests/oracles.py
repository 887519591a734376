"""Independent brute-force oracles used to verify the library implementations.

Everything here is deliberately written with plain Python loops over dicts and
lists (no shared code with the package): voxel-pair enumeration for GLCM, run
walking for GLRLM, stack flood-fill for GLSZM, per-voxel neighbor counting for
GLDM, pairwise concordance for AUC, and an exhaustive greedy loop for the
feature selection. The shape diameters are searched over all voxel pairs, in
numpy blocks, since plain loops over a few thousand voxels would be too slow.
The classifier's dual is solved by enumerating every active set of a small
problem and solving each one's KKT system. A feature set's dataset is
assembled one sample at a time, as one dict per image and per sample.
``bf_normalize`` keeps the first intensity normalization as written, one
intermediate volume per step, as the reference for the single-array one.
``bf_corr_elementwise`` keeps the first selection correlation kernel, an
elementwise product summed down each column, as the bit-for-bit reference for
the contraction that replaced it. ``loop_kaplan_meier``, ``loop_log_rank`` and
``loop_cv_tallies`` keep the first survival statistics and cross-validation
tallies, loops over tie groups, event times and repeats, as the bit-for-bit
references for the array code that replaced them; they build the package's
result types, so that every field compares with ``==``.
``strided_read_volume`` and ``quantile_white_stripe_stats`` keep the first
volume reader (a strided copy of an F-ordered view) and the first white-stripe
statistic (a pass or a partitioned copy per statistic) as the bit-for-bit
references for the blocked reader, the mask loader and the one-sort statistic.
``padded_surface_area`` keeps the first surface area, a count of the changes
along each axis of the zero-padded voxel grid, as the bit-for-bit reference
for the count from the mask's neighbor pairs. ``pow_moments`` keeps the
first Skewness and Kurtosis, the centered values raised with ``**3`` and
``**4``, as the reference for the moments from products. ``bf_max_pairwise``
sums the squared coordinate differences with one ``np.sum`` over the axis, as
the bit-for-bit reference for the diameters summed one axis at a time.
``masked_entropy_bits`` keeps the first entropy, a ``log2`` masked by
``where=``, as the bit-for-bit reference for the one over ``np.where``.
``subtracted_centered`` keeps the first centering for selection (a new array
for ``X - mean`` and for its squares), and ``copied_fold_repeat`` the first
cross-validation repeat (the training and test folds copied whole, the fit on
``X_train[:, cols]``), as the bit-for-bit references for the fold gathered
once and centered in place. ``per_block_correlation_tables`` keeps the first
Table 2 writer, each column's block parsed from its name and one correlation
per block, as the byte-for-byte reference for the one correlation pass.
``concatenated_set_matrix`` keeps the first set assembly (every segment
gathered, the delta block computed for every sample, then one
``np.concatenate``) as the bit-for-bit reference for the matrix written in
place. ``_crossover`` and ``_solve_dual`` are the classifier's solver as first
written, copied verbatim (each free set factored at every crossover, and the
predictor's system check computed and dropped), as the bit-for-bit reference
for the fit. ``csv_features_text`` keeps the first feature-table writer, every
row through ``csv.writer``, as the byte-for-byte reference for the floats
joined as their ``repr``.
"""

import csv
import io
import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np

from radrisk import classifier, mrmr_select, selection, selection_cap
from radrisk.cohort import BLOCK_TAGS, assemble, clinical_features, delta_rows, label_samples
from radrisk.errors import DataError
from radrisk.evaluation import confusion_at, cv, roc_curve
from radrisk.evaluation.survival import LogRankResult, SurvivalCurve
from radrisk.volume import VolumeImage

OFFSETS_13 = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
]

OFFSETS_26 = OFFSETS_13 + [(-a, -b, -c) for a, b, c in OFFSETS_13]


def roi_dict(mask, values=None, levels=None, n_bins=None):
    """Build {coord: level} from a mask plus either precomputed levels or raw values."""
    coords = sorted(zip(*[idx.tolist() for idx in mask.nonzero()]))
    if levels is None:
        vals = [float(values[c]) for c in coords]
        vmin, vmax = min(vals), max(vals)
        if vmin == vmax:
            levels = [1] * len(vals)
        else:
            levels = [min(n_bins, 1 + math.floor(n_bins * (v - vmin) / (vmax - vmin))) for v in vals]
    return {c: l for c, l in zip(coords, levels)}


def _entropy(probabilities):
    return -sum(p * math.log2(p) for p in probabilities if p > 0.0)


def masked_entropy_bits(p):
    """Base-2 entropy along the last axis, log2 taken only where p > 0."""
    logp = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return -(p * logp).sum(axis=-1)


def pow_moments(values):
    """Skewness and Kurtosis of each row of a ``(k, n)`` stack from the
    centered values raised to the 3rd and 4th power; 0 for a constant row."""
    centered = values - values.mean(axis=-1, keepdims=True)
    m2 = (centered**2).mean(axis=-1)
    flat = m2 == 0.0
    m2 = np.where(flat, 1.0, m2)
    skewness = np.where(flat, 0.0, (centered**3).mean(axis=-1) / m2**1.5)
    kurtosis = np.where(flat, 0.0, (centered**4).mean(axis=-1) / m2**2)
    return skewness, kurtosis


# ---------------------------------------------------------------------------
# GLCM


def bf_glcm_direction(roi, d, ng):
    counts = {}
    for p, li in roi.items():
        q = (p[0] + d[0], p[1] + d[1], p[2] + d[2])
        lj = roi.get(q)
        if lj is not None:
            counts[(li, lj)] = counts.get((li, lj), 0) + 1
            counts[(lj, li)] = counts.get((lj, li), 0) + 1
    return counts


def bf_glcm_dir_features(counts, ng):
    total = sum(counts.values())
    p = {k: c / total for k, c in counts.items()}

    def pg(i, j):
        return p.get((i, j), 0.0)

    levels = range(1, ng + 1)
    px = {i: sum(pg(i, j) for j in levels) for i in levels}
    py = {j: sum(pg(i, j) for i in levels) for j in levels}
    ux = sum(i * px[i] for i in levels)
    uy = sum(j * py[j] for j in levels)
    sigx = math.sqrt(sum(px[i] * (i - ux) ** 2 for i in levels))
    sigy = math.sqrt(sum(py[j] * (j - uy) ** 2 for j in levels))
    p_sum = {k: sum(pg(i, j) for i in levels for j in levels if i + j == k) for k in range(2, 2 * ng + 1)}
    p_diff = {k: sum(pg(i, j) for i in levels for j in levels if abs(i - j) == k) for k in range(0, ng)}
    hx = _entropy(px.values())
    hy = _entropy(py.values())
    hxy = _entropy(p.values())
    hxy1 = -sum(v * math.log2(px[i] * py[j]) for (i, j), v in p.items() if v > 0)
    hxy2 = -sum(
        px[i] * py[j] * math.log2(px[i] * py[j])
        for i in levels
        for j in levels
        if px[i] * py[j] > 0
    )
    da = sum(k * v for k, v in p_diff.items())
    autocorr = sum(v * i * j for (i, j), v in p.items())
    max_h = max(hx, hy)
    imc2_arg = 1.0 - math.exp(-2.0 * (hxy2 - hxy))
    imc2 = math.sqrt(imc2_arg) if imc2_arg > 1e-12 else 0.0
    return {
        "Autocorrelation": autocorr,
        "ClusterProminence": sum(v * (i + j - ux - uy) ** 4 for (i, j), v in p.items()),
        "ClusterShade": sum(v * (i + j - ux - uy) ** 3 for (i, j), v in p.items()),
        "ClusterTendency": sum(v * (i + j - ux - uy) ** 2 for (i, j), v in p.items()),
        "Contrast": sum(v * (i - j) ** 2 for (i, j), v in p.items()),
        "Correlation": (autocorr - ux * uy) / (sigx * sigy) if sigx * sigy > 0 else 1.0,
        "DifferenceAverage": da,
        "DifferenceEntropy": _entropy(p_diff.values()),
        "DifferenceVariance": sum(v * (k - da) ** 2 for k, v in p_diff.items()),
        "Id": sum(v / (1 + k) for k, v in p_diff.items()),
        "Idm": sum(v / (1 + k * k) for k, v in p_diff.items()),
        "Idmn": sum(v / (1 + (k / ng) ** 2) for k, v in p_diff.items()),
        "Idn": sum(v / (1 + k / ng) for k, v in p_diff.items()),
        "Imc1": (hxy - hxy1) / max_h if max_h > 0 else 0.0,
        "Imc2": imc2,
        "InverseVariance": sum(v / (k * k) for k, v in p_diff.items() if k >= 1),
        "JointAverage": ux,
        "JointEnergy": sum(v * v for v in p.values()),
        "JointEntropy": hxy,
        "MaximumProbability": max(p.values()),
        "SumEntropy": _entropy(p_sum.values()),
        "SumSquares": sum(v * (i - ux) ** 2 for (i, j), v in p.items()),
    }


def bf_glcm(roi, ng):
    feats = []
    for d in OFFSETS_13:
        counts = bf_glcm_direction(roi, d, ng)
        if counts:
            feats.append(bf_glcm_dir_features(counts, ng))
    if not feats:
        return {name: 0.0 for name in bf_glcm_dir_features({(1, 1): 1}, 1)}
    return {name: sum(f[name] for f in feats) / len(feats) for name in feats[0]}


# ---------------------------------------------------------------------------
# GLRLM


def bf_glrlm_runs(roi, d):
    runs = []
    for p, lvl in roi.items():
        prev = (p[0] - d[0], p[1] - d[1], p[2] - d[2])
        if roi.get(prev) == lvl:
            continue
        length = 1
        q = (p[0] + d[0], p[1] + d[1], p[2] + d[2])
        while roi.get(q) == lvl:
            length += 1
            q = (q[0] + d[0], q[1] + d[1], q[2] + d[2])
        runs.append((lvl, length))
    return runs


def _ilm_features(entries, n_norm, prefix_map):
    """Common (gray level, j) list statistics; prefix_map names the outputs."""
    n = len(entries)
    mu_i = sum(i for i, _ in entries) / n
    mu_j = sum(j for _, j in entries) / n
    count_i = {}
    count_j = {}
    count_ij = {}
    for i, j in entries:
        count_i[i] = count_i.get(i, 0) + 1
        count_j[j] = count_j.get(j, 0) + 1
        count_ij[(i, j)] = count_ij.get((i, j), 0) + 1
    out = {
        prefix_map["gln"]: sum(c * c for c in count_i.values()) / n,
        prefix_map["jn"]: sum(c * c for c in count_j.values()) / n,
        prefix_map["glv"]: sum((i - mu_i) ** 2 for i, _ in entries) / n,
        prefix_map["jv"]: sum((j - mu_j) ** 2 for _, j in entries) / n,
        prefix_map["entropy"]: _entropy([c / n for c in count_ij.values()]),
        prefix_map["low"]: sum(1.0 / (i * i) for i, _ in entries) / n,
        prefix_map["high"]: sum(float(i * i) for i, _ in entries) / n,
        prefix_map["small"]: sum(1.0 / (j * j) for _, j in entries) / n,
        prefix_map["large"]: sum(float(j * j) for _, j in entries) / n,
        prefix_map["small_low"]: sum(1.0 / (i * i * j * j) for i, j in entries) / n,
        prefix_map["small_high"]: sum(float(i * i) / (j * j) for i, j in entries) / n,
        prefix_map["large_low"]: sum(float(j * j) / (i * i) for i, j in entries) / n,
        prefix_map["large_high"]: sum(float(i * i * j * j) for i, j in entries) / n,
    }
    if "glnn" in prefix_map:
        out[prefix_map["glnn"]] = sum(c * c for c in count_i.values()) / (n * n)
    if "jnn" in prefix_map:
        out[prefix_map["jnn"]] = sum(c * c for c in count_j.values()) / (n * n)
    if "percentage" in prefix_map:
        out[prefix_map["percentage"]] = n / n_norm
    return out


def bf_glrlm(roi, ng):
    names = {
        "gln": "GrayLevelNonUniformity",
        "glnn": "GrayLevelNonUniformityNormalized",
        "jn": "RunLengthNonUniformity",
        "jnn": "RunLengthNonUniformityNormalized",
        "glv": "GrayLevelVariance",
        "jv": "RunVariance",
        "entropy": "RunEntropy",
        "low": "LowGrayLevelRunEmphasis",
        "high": "HighGrayLevelRunEmphasis",
        "small": "ShortRunEmphasis",
        "large": "LongRunEmphasis",
        "small_low": "ShortRunLowGrayLevelEmphasis",
        "small_high": "ShortRunHighGrayLevelEmphasis",
        "large_low": "LongRunLowGrayLevelEmphasis",
        "large_high": "LongRunHighGrayLevelEmphasis",
        "percentage": "RunPercentage",
    }
    n_voxels = len(roi)
    feats = [_ilm_features(bf_glrlm_runs(roi, d), n_voxels, names) for d in OFFSETS_13]
    return {name: sum(f[name] for f in feats) / len(feats) for name in feats[0]}


# ---------------------------------------------------------------------------
# GLSZM


def bf_glszm_zones(roi):
    visited = set()
    zones = []
    for start in sorted(roi):
        if start in visited:
            continue
        lvl = roi[start]
        stack = [start]
        visited.add(start)
        size = 0
        while stack:
            p = stack.pop()
            size += 1
            for d in OFFSETS_26:
                q = (p[0] + d[0], p[1] + d[1], p[2] + d[2])
                if q not in visited and roi.get(q) == lvl:
                    visited.add(q)
                    stack.append(q)
        zones.append((lvl, size))
    return zones


def bf_glszm(roi, ng):
    names = {
        "gln": "GrayLevelNonUniformity",
        "glnn": "GrayLevelNonUniformityNormalized",
        "jn": "SizeZoneNonUniformity",
        "jnn": "SizeZoneNonUniformityNormalized",
        "glv": "GrayLevelVariance",
        "jv": "ZoneVariance",
        "entropy": "ZoneEntropy",
        "low": "LowGrayLevelZoneEmphasis",
        "high": "HighGrayLevelZoneEmphasis",
        "small": "SmallAreaEmphasis",
        "large": "LargeAreaEmphasis",
        "small_low": "SmallAreaLowGrayLevelEmphasis",
        "small_high": "SmallAreaHighGrayLevelEmphasis",
        "large_low": "LargeAreaLowGrayLevelEmphasis",
        "large_high": "LargeAreaHighGrayLevelEmphasis",
        "percentage": "ZonePercentage",
    }
    return _ilm_features(bf_glszm_zones(roi), len(roi), names)


# ---------------------------------------------------------------------------
# GLDM


def bf_gldm_entries(roi, alpha=0):
    entries = []
    for p, lvl in roi.items():
        dep = 1
        for d in OFFSETS_26:
            q = (p[0] + d[0], p[1] + d[1], p[2] + d[2])
            other = roi.get(q)
            if other is not None and abs(other - lvl) <= alpha:
                dep += 1
        entries.append((lvl, dep))
    return entries


def bf_gldm(roi, ng):
    names = {
        "gln": "GrayLevelNonUniformity",
        "jn": "DependenceNonUniformity",
        "jnn": "DependenceNonUniformityNormalized",
        "glv": "GrayLevelVariance",
        "jv": "DependenceVariance",
        "entropy": "DependenceEntropy",
        "low": "LowGrayLevelEmphasis",
        "high": "HighGrayLevelEmphasis",
        "small": "SmallDependenceEmphasis",
        "large": "LargeDependenceEmphasis",
        "small_low": "SmallDependenceLowGrayLevelEmphasis",
        "small_high": "SmallDependenceHighGrayLevelEmphasis",
        "large_low": "LargeDependenceLowGrayLevelEmphasis",
        "large_high": "LargeDependenceHighGrayLevelEmphasis",
    }
    return _ilm_features(bf_gldm_entries(roi), len(roi), names)


BF_FAMILIES = {"glcm": bf_glcm, "glrlm": bf_glrlm, "glszm": bf_glszm, "gldm": bf_gldm}


# ---------------------------------------------------------------------------
# Shape diameters


def bf_max_pairwise(points):
    if points.shape[0] < 2:
        return 0.0
    best = 0.0
    step = 512  # blocked to bound memory on large ROIs
    for i in range(0, points.shape[0], step):
        chunk = points[i : i + step]
        d2 = np.sum((chunk[:, None, :] - points[None, :, :]) ** 2, axis=2)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def padded_surface_area(fg, spacing):
    """The exposed voxel faces of a boolean mask: where the zero-padded grid changes along each axis."""
    sx, sy, sz = spacing
    face = (sy * sz, sx * sz, sx * sy)
    padded = np.pad(fg, 1)
    area = 0.0
    for axis in range(3):
        area += int(np.count_nonzero(np.diff(padded, axis=axis))) * face[axis]
    return area


def bf_diameters(mask, spacing):
    """The four shape diameters of a boolean mask, over every pair of ROI voxels."""
    coords = np.argwhere(mask)
    phys = coords.astype(np.float64) * np.asarray(spacing, dtype=np.float64)
    out = {"Maximum3DDiameter": bf_max_pairwise(phys)}
    for axis, name in enumerate(("Row", "Column", "Slice")):
        keep = [a for a in range(3) if a != axis]
        out[f"Maximum2DDiameter{name}"] = max(
            bf_max_pairwise(phys[coords[:, axis] == value][:, keep])
            for value in np.unique(coords[:, axis])
        )
    return out


# ---------------------------------------------------------------------------
# Classifier dual


def bf_svm_dual(Z, upper, eps=1e-9):
    """Exact minimizer of ``0.5 ||Z.T a||^2 - sum(a)`` over ``0 <= a <= upper``.

    Each of the 3^n patterns puts every sample at 0, at its bound, or free;
    the free entries solve ``Z_F Z_F.T a_F = 1 - Z_F Z_U.T a_U``. A pattern
    whose solution lies in the box and meets the KKT sign conditions (gradient
    >= 0 at 0, <= 0 at the bound, = 0 when free) is optimal; the one with the
    lowest objective is kept. Returns ``w = Z.T a``, which is unique because
    the primal is strongly convex in ``w``. Meant for n <= 7.
    """
    Z = np.asarray(Z, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    n = Z.shape[0]
    best, best_w = None, None
    for pattern in itertools.product((0, 1, 2), repeat=n):  # 0: at 0, 1: free, 2: at bound
        state = np.asarray(pattern)
        a = np.where(state == 2, upper, 0.0)
        free = state == 1
        if free.any():
            Zf = Z[free]
            rhs = 1.0 - Zf @ (Z.T @ a)
            a[free] = np.linalg.lstsq(Zf @ Zf.T, rhs, rcond=None)[0]
        if np.any(a < -eps) or np.any(a > upper + eps):
            continue
        w = Z.T @ a
        g = Z @ w - 1.0
        if np.any(g[state == 0] < -eps) or np.any(g[state == 2] > eps) or np.any(np.abs(g[free]) > eps):
            continue
        objective = 0.5 * float(w @ w) - float(a.sum())
        if best is None or objective < best:
            best, best_w = objective, w
    return best_w


def _crossover(Z, upper, a, face, tol: float, refine: bool):
    """The exact point of the face that an interior iterate names: ``(w, kkt_residual)``.

    ``face`` puts each coordinate at 0 (-1), at ``upper`` (+1) or free (0).
    The free ones F move by the minimum-norm solution of
    ``Z_F Z_F.T delta = -g_F``, from the SVD of ``Z_F`` at its numerical rank;
    this zeroes their gradient whenever the face is the optimal one, also where
    ``Z_F`` is rank-deficient. The point is projected onto the box. With
    ``refine``, a point whose residual is not below ``tol`` is corrected once,
    as in an active-set step: every coordinate whose projected gradient is
    nonzero, or that lies strictly inside the box, is freed, and the face is
    solved again.
    """
    a = np.where(face < 0, 0.0, np.where(face > 0, upper, a))
    free = face == 0
    for _ in range(1 + refine):
        if free.any():
            Zf = Z[free]
            U, sv, _ = np.linalg.svd(Zf, full_matrices=False)
            rank = int((sv > sv[0] * max(Zf.shape) * np.finfo(np.float64).eps).sum())
            U, sv = U[:, :rank], sv[:rank]
            a[free] -= U @ ((U.T @ (Zf @ (Z.T @ a) - 1.0)) / (sv * sv))
            a = np.clip(a, 0.0, upper)
        w = Z.T @ a
        g = Z @ w - 1.0
        # projected gradient: the KKT residual of the box-constrained dual
        pg = np.where(a == 0.0, np.minimum(g, 0.0), np.where(a == upper, np.maximum(g, 0.0), g))
        residual = float(np.abs(pg).max())
        if residual < tol:
            break
        free = (pg != 0.0) | ((a > 0.0) & (a < upper))
    return w, residual


def _solve_dual(Z, upper, max_iterations: int, tol: float):
    """``(w, kkt_residual, iterations)`` for ``min 0.5 ||Z.T a||^2 - sum(a)`` over ``0 <= a <= upper``.

    Mehrotra predictor-corrector primal-dual interior point, with multipliers
    ``s`` of ``a >= 0`` and ``r`` of ``a <= upper``. Each Newton system
    ``(D + Z Z.T) da = h`` (``D = s/a + r/(upper - a)``) is solved through
    Woodbury with one Cholesky of ``I + Z.T D^-1 Z``. After each step the
    crossover proposes an exact candidate on the face that the multipliers
    name: a coordinate is at 0 when ``s`` exceeds its distance to 0, and at
    ``upper`` when ``r`` exceeds its distance to ``upper``. A face named twice
    in a row that fails is refined once. The first candidate whose KKT
    residual is below ``tol`` is returned. Otherwise the best candidate is
    returned at the iteration cap, or as soon as a step cannot stay strictly
    inside the box or its direction is lost to rounding.
    """
    n, m = Z.shape
    # a small interior start: from upper / 2 the first gap grows with C, and the
    # fits of the planted cohort took ~5 more iterations
    a = np.minimum(0.5 * upper, 1.0 / m)
    w = Z.T @ a
    g = Z @ w - 1.0
    best_w, best_residual = w, float(np.abs(g).max())  # a is interior: its projected gradient is g
    s = np.maximum(g, 0.0) + 1.0
    r = np.maximum(-g, 0.0) + 1.0  # so the dual residual g - s + r starts at 0
    eye = np.eye(m)
    face = None
    for iterations in range(1, max_iterations + 1):
        v = upper - a
        x = np.stack([a, v, s, r])
        rd = g - s + r
        mu = float((a @ s + v @ r) / (2 * n))
        dinv = 1.0 / (s / a + r / v)
        ZD = Z * dinv[:, None]
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(eye + Z.T @ ZD))
        except np.linalg.LinAlgError:
            break
        M_inv = L_inv.T @ L_inv

        def newton(cs, cr):
            """Direction of (a, v, s, r) for s da + a ds = cs, -r da + v dr = cr, Z Z.T da - ds + dr = -rd,
            and whether its reduced system ``(D + Z Z.T) da = h`` holds better than ``da = 0`` would."""
            h = cs / a - cr / v - rd
            da = dinv * (h - Z @ (M_inv @ (ZD.T @ h)))
            held = np.abs(da / dinv + Z @ (Z.T @ da) - h).max() < np.abs(h).max()
            return np.stack([da, -da, (cs - s * da) / a, (cr + r * da) / v]), held

        def max_step(dx):
            """Largest step in [0, 1] that keeps every entry of x + step * dx >= 0."""
            shrink = dx < 0.0
            return min(1.0, float((x[shrink] / -dx[shrink]).min())) if shrink.any() else 1.0

        dx, _ = newton(-a * s, -v * r)  # predictor: the affine-scaling direction
        aff = x + max_step(dx) * dx
        mu_aff = float((aff[0] @ aff[2] + aff[1] @ aff[3]) / (2 * n))
        target = mu * (mu_aff / mu) ** 3
        dx, held = newton(target - a * s - dx[0] * dx[2], target - v * r - dx[1] * dx[3])
        step = 0.995 * max_step(dx)
        a_next = a + step * dx[0]
        # a direction that solves its system no better than 0 (lost to rounding) ends
        # the solve, like a step that cannot stay strictly inside the box
        if not (held and np.all(a_next > 0.0) and np.all(a_next < upper)):
            break
        a, s, r = a_next, s + step * dx[2], r + step * dx[3]
        g = Z @ (Z.T @ a) - 1.0
        last_face, face = face, np.where(s > a, -1, np.where(r > upper - a, 1, 0))
        w, residual = _crossover(Z, upper, a, face, tol, refine=np.array_equal(face, last_face))
        if residual < best_residual:
            best_w, best_residual = w, residual
        if residual < tol:
            break
    return best_w, best_residual, iterations


# ---------------------------------------------------------------------------
# Other oracles


def csv_features_text(store, config_comment):
    """The first ``features.csv`` text: the comment, then the header and every row through one
    ``csv.writer``, the floats as the Python floats of ``tolist``."""
    fh = io.StringIO(newline="")
    names, values = (store.names, store.values) if store.keys else ([], np.empty((0, 0)))
    fh.write(f"# {config_comment}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("lesion_id", "role", "date") + tuple(names))
    writer.writerows(list(key) + row for key, row in zip(store.keys, values.tolist()))
    return fh.getvalue()


def bf_pearson(x, y):
    n = len(x)
    if all(a == x[0] for a in x) or all(b == y[0] for b in y):
        return 0.0
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    if dx == 0.0 or dy == 0.0:
        return 0.0
    return num / (dx * dy)


def bf_corr_elementwise(X, y):
    """Pearson r of every column of a C-ordered ``X`` with ``y``, as the product
    ``Xc * yc`` summed down axis 0; 0 where either side is exactly constant."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    yc = (y - y.mean())[:, None]
    Xc = X - X.mean(axis=0)
    r = np.zeros(X.shape[1])
    if np.all(y == y[0]):
        return r
    product = (Xc * yc).sum(axis=0)
    norm = np.sqrt((Xc**2).sum(axis=0))
    live = ~np.all(X == X[0], axis=0) & (norm != 0.0)
    r[live] = product[live] / (norm * np.sqrt((yc**2).sum(axis=0)))[live]
    return r


def per_block_correlation_tables(dataset, out, comment, top=10):
    """The first Table 2 writer: each column's block parsed from its name's tag (the
    ``-wavelet-`` columns of every image block form the wavelet block), one correlation per
    block over its columns gathered with ``np.take`` and centered on their own, each block
    ranked by (-|r|, name) and cut at ``top`` rows."""
    groups = {}
    for k, name in enumerate(dataset.feature_names):
        block = next(b for b, tag in BLOCK_TAGS.items() if name.startswith(f"{tag}-"))
        groups.setdefault("wavelet" if block != "clinical" and "-wavelet-" in name else block, []).append(k)
    for block, cols in groups.items():
        block_X = np.take(dataset.X, cols, axis=1)
        r = selection._corr(*selection._centered(block_X), np.asarray(dataset.y, dtype=np.float64))
        names = [dataset.feature_names[k] for k in cols]
        order = sorted(range(len(cols)), key=lambda j: (-abs(float(r[j])), names[j]))
        lines = [f"# {comment}", "rank,feature,r"]
        lines += [f"{rank},{names[j]},{float(r[j])!r}" for rank, j in enumerate(order[:top], start=1)]
        (Path(out) / f"table2_{block}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def subtracted_centered(X):
    """The first ``selection._centered``: (centered matrix, column norms, constant mask)."""
    X = np.ascontiguousarray(X)
    Xc = X - X.mean(axis=0)
    norm = np.sqrt((Xc**2).sum(axis=0))
    constant = np.all(X == X[0], axis=0) | (norm == 0.0)
    return Xc, norm, constant


def copied_fold_repeat(dataset, lesion_of, flags, seed, cv_cfg, clf_cfg, global_selection):
    """The first ``cv._one_repeat``: the same split, with both folds copied whole,
    selection on the training copy, and the fit and scores on their picked columns."""
    rng = np.random.default_rng(seed)
    for attempt in range(100):
        in_test = cv._split_lesions(flags, cv_cfg.test_frac, rng)[lesion_of]
        y_train = dataset.y[~in_test]
        y_test = dataset.y[in_test]
        if len(np.unique(y_train)) == 2 and len(np.unique(y_test)) == 2:
            break
    else:
        raise DataError(f"no valid stratified split after 100 retries (seed {seed})")

    straddle = int(np.intersect1d(lesion_of[in_test], lesion_of[~in_test]).size)

    X_train = dataset.X[~in_test]
    X_test = dataset.X[in_test]
    if global_selection is not None:
        selection = global_selection
    else:
        cap = selection_cap(X_train.shape[0], cv_cfg.per_samples)
        selection = mrmr_select(X_train, y_train, cap, dataset.feature_names)
    cols = selection.indices
    model = classifier.fit(X_train[:, cols], y_train, selection.selected, clf_cfg)
    scores = classifier.decision_scores(model, X_test[:, cols])
    auc_value = roc_curve(scores, y_test).auc
    return (auc_value, np.flatnonzero(in_test), scores, straddle, selection.selected, model.kkt_residual,
            model.epochs_run)


def bf_mrmr(X_rows, y, k, names):
    """Exhaustive greedy selection over a row-list matrix."""
    d = len(names)
    cols = [[row[j] for row in X_rows] for j in range(d)]
    relevance = [abs(bf_pearson(col, list(y))) for col in cols]
    selected = []
    remaining = list(range(d))
    while len(selected) < min(k, d) and remaining:
        scored = []
        for j in remaining:
            if selected:
                red = sum(abs(bf_pearson(cols[j], cols[s])) for s in selected) / len(selected)
            else:
                red = 0.0
            scored.append((relevance[j] - red, j))
        best_score = max(s for s, _ in scored)
        if selected and best_score <= 0.0:
            break
        candidates = [j for s, j in scored if s == best_score]
        best = min(candidates, key=lambda j: names[j])
        selected.append(best)
        remaining.remove(best)
    return [names[j] for j in selected]


def bf_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def bf_kaplan_meier(times, events):
    """Product-limit table [(t, n_at_risk, d, S)] at event times."""
    data = sorted(zip(times, events))
    n = len(data)
    out = []
    s = 1.0
    i = 0
    while i < n:
        t = data[i][0]
        j = i
        d = 0
        while j < n and data[j][0] == t:
            d += int(bool(data[j][1]))
            j += 1
        if d > 0:
            at_risk = n - i
            s *= 1.0 - d / at_risk
            out.append((t, at_risk, d, s))
        i = j
    return out


def bf_whitestripe_peak(values, bins=256):
    """Exhaustive smoothed-histogram scan for the peak above the median."""
    lo, hi = min(values), max(values)
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        idx = min(bins - 1, int((v - lo) / width)) if width > 0 else 0
        counts[idx] += 1
    kernel = [1, 6, 15, 20, 15, 6, 1]
    smoothed = []
    for i in range(bins):
        acc = 0.0
        for k, w in enumerate(kernel):
            j = i + k - 3
            if 0 <= j < bins:
                acc += w * counts[j]
        smoothed.append(acc / 64.0)
    ordered = sorted(values)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    best = None
    for i in range(bins):
        center = lo + (i + 0.5) * width
        if center > median and (best is None or smoothed[i] > smoothed[best]):
            best = i
    if best is None:
        return None
    return lo + (best + 0.5) * width


def _bf_volume(voxels):
    """A volume's voxels as a volume constructor stores them: a finite float64 copy."""
    vox = np.asarray(voxels, dtype=np.float64).copy()
    if not np.all(np.isfinite(vox)):
        raise DataError("volume contains non-finite voxels")
    return vox


def bf_normalize(voxels, zscore=True, whitestripe=True):
    """The normalization as first written: a z-scored volume over the whole
    grid, then a white-striped volume over an all-ones brain mask, each built
    as a new volume. White-stripe runs at tau 0.05, 256 bins and a 10-voxel
    window. Returns the normalized voxels."""
    out = _bf_volume(voxels)
    if zscore:
        ref = out.ravel()
        mu = float(ref.mean())
        sigma = float(ref.std())
        if sigma == 0.0:
            raise DataError("constant image: zero variance over the normalization region")
        out = _bf_volume((out - mu) / sigma)
    if whitestripe:
        brain = np.ones(out.shape, dtype=bool)
        vals = out[brain]
        lo, hi = float(vals.min()), float(vals.max())
        if lo == hi:
            raise DataError("no histogram peak above the masked median (constant region)")
        hist, edges = np.histogram(vals, bins=256, range=(lo, hi))
        centers = (edges[:-1] + edges[1:]) / 2.0
        kernel = np.array([1, 6, 15, 20, 15, 6, 1], dtype=np.float64) / 64.0
        smoothed = np.convolve(hist.astype(np.float64), kernel, mode="same")
        med = float(np.median(vals))
        candidates = np.nonzero(centers > med)[0]
        if candidates.size == 0 or smoothed[candidates].max() == 0.0:
            raise DataError("no histogram peak above the masked median")
        peak_idx = int(candidates[np.argmax(smoothed[candidates])])
        mu_ws = float(centers[peak_idx])
        p_peak = float(np.mean(vals <= mu_ws))
        q_lo, q_hi = np.quantile(vals, [max(0.0, p_peak - 0.05), min(1.0, p_peak + 0.05)])
        window = vals[(vals >= q_lo) & (vals <= q_hi)]
        if window.size < 10:
            raise DataError(f"white-stripe window contains {window.size} voxels (< 10)")
        sigma_ws = float(window.std())
        if sigma_ws == 0.0:
            raise DataError("constant image: zero variance in the white-stripe window")
        out = _bf_volume((out - mu_ws) / sigma_ws)
    return out


# ---------------------------------------------------------------------------
# feature-set assembly, one sample at a time


_ROLE_TAGS = {"followup": "follow-up-mr", "planning_mr": "Plan-mr", "planning_ct": "Plan-ct"}


def bf_vectors(names, keys, values):
    """A feature store as one dict per image, keyed by role-tagged feature names."""
    return {key: {f"{_ROLE_TAGS[key[1]]}-{n}": float(v) for n, v in zip(names, row)}
            for key, row in zip(keys, values)}


def _bf_suffix(name):
    for marker in ("-original-", "-wavelet-"):
        pos = name.find(marker)
        if pos >= 0:
            return name[pos + 1:]
    raise ValueError(name)


def _bf_clinical(c, gap_days):
    n = c.n_metastases
    return {
        "clinical-rpa_class": float(c.rpa_class),
        "clinical-eqd": float(c.eqd),
        "clinical-n_metastases": float(n),
        "clinical-age": float(c.age),
        "clinical-sex": float(c.sex),
        "clinical-karnofsky": float(c.karnofsky),
        "clinical-primary_lung": 1.0 if c.primary_site == "lung" else 0.0,
        "clinical-primary_melanoma": 1.0 if c.primary_site == "melanoma" else 0.0,
        "clinical-primary_breast": 1.0 if c.primary_site == "breast" else 0.0,
        "clinical-gap_days": float(gap_days),
        "clinical-lesion_count_class": float(1 if n == 1 else (2 if n <= 3 else 3)),
        "clinical-extracranial": float(c.extracranial),
    }


def concatenated_set_matrix(records, store, spec):
    """The first matrix of one feature set: the clinical and delta blocks computed for every
    labeled sample, each segment gathered, and the gathers concatenated."""
    samples = label_samples(records).samples
    lesion_row = {rec.lesion_id: k for k, rec in enumerate(records)}
    lesion = np.array([lesion_row[s.lesion_id] for s in samples], dtype=np.intp)
    gap = np.array([s.gap_days for s in samples], dtype=np.float64)
    plan_keys = [(rec.lesion_id, rec.planning_date.isoformat()) for rec in records]
    rows = {
        "followup_mr": store.rows([(s.lesion_id, "followup", s.imaging_date.isoformat()) for s in samples]),
        "planning_mr": store.rows([(lid, "planning_mr", d) for lid, d in plan_keys])[lesion],
        "planning_ct": store.rows([(lid, "planning_ct", d) for lid, d in plan_keys])[lesion],
    }
    clinical = np.array([list(clinical_features(records[k].clinical, s.gap_days).values())
                         for k, s in zip(lesion, samples)])
    matrix = dict.fromkeys(rows, store.values) | {"clinical": clinical}
    at = rows | dict.fromkeys(("clinical", "delta"), np.arange(len(samples)))
    with np.errstate(divide="ignore", invalid="ignore"):
        fu, plan = store.values[rows["followup_mr"]], store.values[rows["planning_mr"]]
        matrix["delta"] = delta_rows(fu, plan, gap[:, None])
    ct_less = {rec.lesion_id for rec in records if rec.planning_ct is None}
    kept = np.flatnonzero([not ("planning_ct" in spec.blocks and s.lesion_id in ct_less) for s in samples])
    return np.concatenate([matrix[source][np.ix_(at[source][kept], cols)]
                           for _, source, cols in assemble(spec, store.names)], axis=1)


def bf_dataset(records, samples, vectors, blocks):
    """One feature set's rows, built per sample from per-image dicts.

    ``samples`` are the labeled follow-ups, ``vectors`` the output of
    ``bf_vectors`` and ``blocks`` the set's row of Table 1. Returns
    (names, rows, y, times, events, lesion_ids) as plain lists.
    """
    by_lesion = {rec.lesion_id: rec for rec in records}
    excluded = set()
    if "planning_ct" in blocks:
        excluded = {rec.lesion_id for rec in records if rec.planning_ct is None}
    markers = ("-original-", "-wavelet-") if "wavelet" in blocks else ("-original-",)
    names, rows, kept = None, [], []
    for s in samples:
        if s.lesion_id in excluded:
            continue
        rec = by_lesion[s.lesion_id]
        plan_date = rec.planning_date.isoformat()
        image = {
            "followup_mr": vectors[(s.lesion_id, "followup", s.imaging_date.isoformat())],
            "planning_mr": vectors[(s.lesion_id, "planning_mr", plan_date)],
            "planning_ct": vectors.get((s.lesion_id, "planning_ct", plan_date)),
        }
        plan_by_suffix = {_bf_suffix(n): v for n, v in image["planning_mr"].items()}
        image["delta"] = {f"Delta-mr-{_bf_suffix(n)}": (v - plan_by_suffix[_bf_suffix(n)]) / s.gap_days
                          for n, v in image["followup_mr"].items()}
        row = _bf_clinical(rec.clinical, s.gap_days)
        for marker in markers:
            for block in ("followup_mr", "delta", "planning_mr", "planning_ct"):
                if block in blocks:
                    row.update({n: v for n, v in image[block].items() if marker in n})
        if names is None:
            names = list(row)
        assert list(row) == names
        rows.append([row[n] for n in names])
        kept.append(s)
    y = [1 if s.label == "HRM" else 0 for s in kept]
    times = [float(s.days_to_event_or_censor) for s in kept]
    events = [not s.censored for s in kept]
    return names, rows, y, times, events, [s.lesion_id for s in kept]


# ---------------------------------------------------------------------------
# survival statistics and CV tallies, as first written

Z95 = 1.959963984540054


def loop_kaplan_meier(times, events):
    """The first ``kaplan_meier``: tie groups by two pointers, five list accumulators."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if times.shape != events.shape or times.ndim != 1 or times.size == 0:
        raise DataError(f"times {times.shape} and events {events.shape} disagree or are empty")
    if np.any(times < 0):
        raise DataError("negative survival time")

    order = np.argsort(times, kind="stable")
    t = times[order]
    e = events[order]
    n = t.size

    grid = []
    surv = []
    at_risk = []
    d_at = []
    var_sum = 0.0
    greenwood = []
    s = 1.0
    i = 0
    while i < n:
        j = i
        while j < n and t[j] == t[i]:
            j += 1
        d = int(e[i:j].sum())
        if d > 0:
            n_i = n - i
            s *= 1.0 - d / n_i
            if n_i > d:
                var_sum += d / (n_i * (n_i - d))
            grid.append(float(t[i]))
            surv.append(s)
            at_risk.append(n_i)
            d_at.append(d)
            greenwood.append(var_sum)
        i = j

    grid = np.asarray(grid)
    surv = np.asarray(surv)
    ci_low = np.zeros_like(surv)
    ci_high = np.ones_like(surv)
    for k, s_k in enumerate(surv):
        if s_k <= 0.0:
            ci_low[k] = ci_high[k] = 0.0
        elif s_k >= 1.0:
            ci_low[k] = ci_high[k] = 1.0
        else:
            se_ll = math.sqrt(greenwood[k]) / abs(math.log(s_k))
            ci_low[k] = s_k ** math.exp(Z95 * se_ll)
            ci_high[k] = s_k ** math.exp(-Z95 * se_ll)

    median = None
    below = np.nonzero(surv <= 0.5)[0]
    if below.size:
        median = float(grid[below[0]])

    return SurvivalCurve(
        times=grid,
        surv=surv,
        at_risk=np.asarray(at_risk, dtype=np.int64),
        events=np.asarray(d_at, dtype=np.int64),
        ci_low=ci_low,
        ci_high=ci_high,
        censor_times=np.sort(times[~events]),
        median=median,
        n=n,
    )


def loop_log_rank(times_a, events_a, times_b, events_b):
    """The first ``log_rank``: a scan of both groups per event time."""
    ta = np.asarray(times_a, dtype=np.float64)
    ea = np.asarray(events_a, dtype=bool)
    tb = np.asarray(times_b, dtype=np.float64)
    eb = np.asarray(events_b, dtype=bool)
    if ta.size == 0 or tb.size == 0:
        raise DataError("log-rank needs both groups nonempty")
    if np.any(ta < 0) or np.any(tb < 0):
        raise DataError("negative survival time")
    if not (ea.any() or eb.any()):
        raise DataError("log-rank needs at least one event")

    event_times = np.unique(np.concatenate([ta[ea], tb[eb]]))
    observed = 0.0
    expected = 0.0
    variance = 0.0
    for t in event_times:
        n_a = int((ta >= t).sum())
        n_b = int((tb >= t).sum())
        n_t = n_a + n_b
        d_a = int(((ta == t) & ea).sum())
        d_b = int(((tb == t) & eb).sum())
        d = d_a + d_b
        if n_t == 0 or d == 0:
            continue
        observed += d_a
        expected += d * n_a / n_t
        if n_t > 1:
            variance += d * (n_a / n_t) * (n_b / n_t) * (n_t - d) / (n_t - 1)

    if variance == 0.0:
        return LogRankResult(0.0, 1.0, observed, expected)
    chi2 = (observed - expected) ** 2 / variance
    p = math.erfc(math.sqrt(chi2 / 2.0))
    return LogRankResult(float(chi2), float(p), float(observed), float(expected))


def loop_lesion_table(dataset):
    """Lesion ids in order of first appearance, and whether each is ever HRM."""
    ever_hrm: dict[str, bool] = {}
    for lid, label in zip(dataset.lesion_ids, dataset.y):
        ever_hrm[lid] = ever_hrm.get(lid, False) or label == 1
    return list(ever_hrm), np.asarray(list(ever_hrm.values()), dtype=bool)


def loop_split_lesions(lesions, flags, test_frac, rng):
    """The first lesion-grouped split: a set of test lesion ids."""
    test: set[str] = set()
    for flag in (True, False):
        stratum = [l for l, f in zip(lesions, flags) if f == flag]
        if not stratum:
            continue
        if len(stratum) < 2:
            raise DataError(f"stratum with flag={flag} has {len(stratum)} lesion(s); need >= 2")
        n_test = int(round(test_frac * len(stratum)))
        n_test = min(max(n_test, 1), len(stratum) - 1)
        order = rng.permutation(len(stratum))
        test.update(stratum[i] for i in order[:n_test])
    return test


def loop_cv_tallies(results, y, threshold):
    """The first tallies of ``monte_carlo_cv``: per-repeat accumulators over its repeats' results.

    Returns (oof_scores, oof_counts, confusion)."""
    n = y.size
    oof_sum = np.zeros(n)
    oof_counts = np.zeros(n, dtype=np.int64)
    aucs = []
    straddles = []
    confusion = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    pooled_scores: list[np.ndarray] = []
    pooled_labels: list[np.ndarray] = []
    selected_first: list[str] = []
    residuals = []
    iterations = []
    for k, (auc_value, in_test, scores, straddle, selected, residual, epochs) in enumerate(results):
        residuals.append(residual)
        iterations.append(epochs)
        aucs.append(float(auc_value))
        straddles.append(straddle)
        oof_sum[in_test] += scores
        oof_counts[in_test] += 1
        y_test = y[in_test]
        for key, count in confusion_at(scores, y_test, threshold).items():
            confusion[key] += count
        pooled_scores.append(scores)
        pooled_labels.append(y_test)
        if k == 0:
            selected_first = list(selected)

    oof = np.divide(oof_sum, oof_counts, out=np.zeros(n), where=oof_counts > 0)
    return oof, oof_counts, confusion


# ---------------------------------------------------------------------------
# volume reading and white-stripe, as first written


def strided_read_volume(path, format=None, modality=None):
    """The first ``read_volume``: the payload as float64, reshaped x-fastest
    (an F-ordered view), and copied to C order by the volume constructor."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"volume file not found: {path}")
    fmt = format or _infer_format(path)
    if fmt == "rawjson":
        return _strided_read_rawjson(path, modality)
    if fmt == "nifti1":
        return _strided_read_nifti(path, modality)
    raise DataError(f"unsupported volume format {fmt!r}")


def _infer_format(path):
    if path.suffix == ".json":
        return "rawjson"
    if path.suffix == ".nii":
        return "nifti1"
    raise DataError(f"cannot infer volume format from {path.name!r} (expected .json or .nii)")


def _json_triple(value, kinds):
    return (
        isinstance(value, list)
        and len(value) == 3
        and all(isinstance(v, kinds) and not isinstance(v, bool) for v in value)
    )


def _strided_read_rawjson(path, modality):
    try:
        meta = json.loads(path.read_bytes())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"malformed RAWJSON header {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"RAWJSON header {path} must be an object")
    for key in ("dims", "spacing", "dtype", "data_file"):
        if key not in meta:
            raise DataError(f"RAWJSON header {path} missing field {key!r}")
    if meta["dtype"] != "f32":
        raise DataError(f"unsupported scalar type {meta['dtype']!r} in {path} (only f32)")
    dims = meta["dims"]
    if not _json_triple(dims, int) or any(d < 1 for d in dims):
        raise DataError(f"RAWJSON dims must be 3 positive ints, got {dims!r}")
    spacing = meta["spacing"]
    if not _json_triple(spacing, (int, float)):
        raise DataError(f"RAWJSON spacing must be 3 numbers, got {spacing!r}")
    if not isinstance(meta["data_file"], str):
        raise DataError(f"RAWJSON data_file must be a string, got {meta['data_file']!r}")
    raw_path = path.parent / meta["data_file"]
    if not raw_path.is_file():
        raise DataError(f"RAWJSON data file not found: {raw_path}")
    raw = raw_path.read_bytes()
    nvox = dims[0] * dims[1] * dims[2]
    if len(raw) != nvox * 4:
        raise DataError(f"RAWJSON payload size {len(raw)} != {nvox * 4} bytes for dims {dims}")
    vox = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(dims, order="F")
    return VolumeImage(vox, spacing, modality or meta.get("modality", "MR"))


def _strided_read_nifti(path, modality):
    buf = path.read_bytes()
    if len(buf) < 352:
        raise DataError(f"NIfTI file too short ({len(buf)} bytes): {path}")
    (sizeof_hdr,) = struct.unpack_from("<i", buf, 0)
    if sizeof_hdr != 348:
        raise DataError(f"malformed NIfTI header (sizeof_hdr={sizeof_hdr}; big-endian unsupported)")
    if buf[344:348] != b"n+1\x00":
        raise DataError(f"malformed NIfTI header (bad magic {buf[344:348]!r})")
    dim = struct.unpack_from("<8h", buf, 40)
    ndim = dim[0]
    if not 3 <= ndim <= 7 or any(d != 1 for d in dim[4 : ndim + 1]):
        raise DataError(f"unsupported NIfTI dimensionality dim={list(dim)} (need 3D)")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in dims):
        raise DataError(f"malformed NIfTI header (dims {dims})")
    (datatype,) = struct.unpack_from("<h", buf, 70)
    dtypes = {4: np.dtype("<i2"), 16: np.dtype("<f4")}
    if datatype not in dtypes:
        raise DataError(f"unsupported scalar type (NIfTI datatype code {datatype}; only int16/float32)")
    dtype = dtypes[datatype]
    pixdim = struct.unpack_from("<8f", buf, 76)
    spacing = tuple(float(p) for p in pixdim[1:4])
    if not all(math.isfinite(s) and s > 0 for s in spacing):
        raise DataError(f"malformed NIfTI header (pixdim {spacing})")
    (vox_offset,) = struct.unpack_from("<f", buf, 108)
    if not math.isfinite(vox_offset) or vox_offset < 352 or vox_offset != int(vox_offset):
        raise DataError(f"malformed NIfTI header (vox_offset {vox_offset})")
    slope, inter = struct.unpack_from("<2f", buf, 112)
    nvox = dims[0] * dims[1] * dims[2]
    start = int(vox_offset)
    end = start + nvox * dtype.itemsize
    if len(buf) < end:
        raise DataError(f"NIfTI payload truncated ({len(buf)} < {end} bytes)")
    vox = np.frombuffer(buf[start:end], dtype=dtype).astype(np.float64)
    if slope not in (0.0, 1.0) or inter != 0.0:
        vox = vox * float(slope) + float(inter)
    if not np.all(np.isfinite(vox)):
        raise DataError(f"NIfTI volume contains non-finite voxels: {path}")
    return VolumeImage(vox.reshape(dims, order="F"), spacing, modality or "MR")


def quantile_white_stripe_stats(values):
    """The first ``white_stripe_stats``: min, max, ``np.histogram``, ``np.median``
    and ``np.quantile``, each its own pass or partitioned copy of ``values``."""
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        raise DataError("no histogram peak above the masked median (constant region)")
    hist, edges = np.histogram(values, bins=256, range=(lo, hi))
    centers = (edges[:-1] + edges[1:]) / 2.0
    kernel = np.array([1, 6, 15, 20, 15, 6, 1], dtype=np.float64) / 64.0
    smoothed = np.convolve(hist.astype(np.float64), kernel, mode="same")
    med = float(np.median(values))
    candidates = np.nonzero(centers > med)[0]
    if candidates.size == 0 or smoothed[candidates].max() == 0.0:
        raise DataError("no histogram peak above the masked median")
    peak_idx = int(candidates[np.argmax(smoothed[candidates])])
    mu_ws = float(centers[peak_idx])
    p_peak = float(np.mean(values <= mu_ws))
    p_lo, p_hi = max(0.0, p_peak - 0.05), min(1.0, p_peak + 0.05)
    q_lo, q_hi = np.quantile(values, [p_lo, p_hi])
    window = values[(values >= q_lo) & (values <= q_hi)]
    if window.size < 10:
        raise DataError(f"white-stripe window contains {window.size} voxels (< 10)")
    sigma_ws = float(window.std())
    if sigma_ws == 0.0:
        raise DataError("constant image: zero variance in the white-stripe window")
    return mu_ws, sigma_ws
