"""3D scalar volumes, ROI masks, file I/O and intensity normalization.

Two on-disk formats are supported:

* RAWJSON: ``<name>.json`` holding ``dims`` (3 ints), ``spacing`` (3 floats),
  ``dtype`` ("f32") and ``data_file`` (sibling raw file, little-endian float32,
  x-fastest order).
* Minimal NIfTI-1: uncompressed single file, little-endian, 348-byte header,
  magic ``n+1\\0``, datatype int16 or float32, spacing taken from pixdim.
  No affine handling, no compression, no resampling.

Volumes are immutable after construction; voxel arrays are indexed ``[x, y, z]``,
C-ordered and marked read-only. ``read_volume`` and ``read_mask`` share one
header and payload parser; a mask is the payload thresholded at 0.5, with no
float64 volume in between. A mask computes its foreground coordinates and their
26-neighbor pairs once, on first use.

An image holds a read-only float64 array that owns its C-ordered data (the
one ``read_volume`` builds, or another image's) as it is, and copies any other.

Intensity normalization is two statistics over a flat array of voxel values,
each an offset and a scale ``(mu, sigma)``: ``zscore_stats`` (mean and
population std) and ``white_stripe_stats`` (Shinohara et al., NeuroImage:
Clinical 2014). ``radrisk.pipeline.normalize_volume`` decides which apply to
which image, from the ``zscore`` and ``whitestripe`` fields of the one
``ExtractionConfig``, and returns them as a tuple of maps: the affine maps
``(v - mu) / sigma`` in order, which ``apply_maps`` applies only where voxels
are read (feature extraction reads the ROI's box). The statistics take at
most one whole-volume float64 buffer at a time: the z-score's deviations,
then white-stripe's sorted copy of the raw values, mapped in place.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError

FORMAT_RAWJSON = "rawjson"
FORMAT_NIFTI = "nifti1"

_NIFTI_MAGIC = b"n+1\x00"
_NIFTI_DTYPES = {4: np.dtype("<i2"), 16: np.dtype("<f4")}

# one representative per +/- pair of the 26-neighborhood
DIRECTIONS_13 = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, -1, 0),
    (1, 0, 1),
    (1, 0, -1),
    (0, 1, 1),
    (0, 1, -1),
    (1, 1, 1),
    (1, 1, -1),
    (1, -1, 1),
    (1, -1, -1),
)


class NeighborPairs(NamedTuple):
    """Voxel pairs (a, b) with coords[b] == coords[a] + DIRECTIONS_13[direction]."""

    a: np.ndarray
    b: np.ndarray
    direction: np.ndarray


@dataclass(frozen=True)
class VolumeImage:
    """3D scalar grid with physical voxel spacing in mm."""

    voxels: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    modality: str = "MR"

    def __post_init__(self):
        vox = np.asarray(self.voxels, dtype=np.float64)
        if vox.ndim != 3 or min(vox.shape) < 1:
            raise DataError(f"volume must be 3D with positive dims, got shape {vox.shape}")
        if not np.all(np.isfinite(vox)):
            raise DataError("volume contains non-finite voxels")
        spacing = _checked_header(self.spacing, self.modality)
        # an array that owns its C-ordered data and is read-only (a reader's, or
        # another image's) cannot change under the image: it is held as it is
        if vox.flags.writeable or not (vox.flags.owndata and vox.flags.c_contiguous):
            vox = vox.copy()
            vox.flags.writeable = False
        object.__setattr__(self, "voxels", vox)
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape


def apply_maps(values: np.ndarray, maps) -> np.ndarray:
    """``values`` under each map ``(v - mu) / sigma`` of ``maps`` in turn, in that
    arithmetic: a subtraction into a new array, then a division in place. With
    no maps, ``values`` itself. The maps are elementwise, so a box of a volume
    mapped alone holds the bits of that box of the whole mapped volume."""
    for mu, sigma in maps:
        values = values - mu
        values /= sigma
    return values


def _checked_header(spacing, modality: str) -> tuple[float, float, float]:
    """A volume's spacing as three floats, after the checks of spacing and modality."""
    try:
        floats = tuple(float(s) for s in spacing)
    except (TypeError, ValueError, OverflowError):
        floats = ()  # not three numbers: rejected below
    if len(floats) != 3 or not all(math.isfinite(s) and s > 0 for s in floats):
        raise DataError(f"spacing must be three finite positive floats, got {spacing}")
    if modality not in ("MR", "CT"):
        raise DataError(f"unknown modality {modality!r} (expected MR or CT)")
    return floats


@dataclass(frozen=True)
class RoiMask:
    """Binary lesion mask on the same grid as its paired volume."""

    voxels: np.ndarray

    def __post_init__(self):
        vox = np.asarray(self.voxels)
        if vox.ndim != 3 or min(vox.shape) < 1:
            raise DataError(f"mask must be 3D with positive dims, got shape {vox.shape}")
        vox = vox.astype(bool)
        vox.flags.writeable = False
        object.__setattr__(self, "voxels", vox)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape

    @property
    def count(self) -> int:
        return len(self.coords)

    @cached_property
    def coords(self) -> np.ndarray:
        """Foreground voxel indices, (n, 3) in C order; computed once per mask.
        The same array as ``np.argwhere``, values, dtype and layout, from the
        flat indices, in a tenth of its time on a 128x128x64 grid."""
        coords = np.transpose(np.unravel_index(np.flatnonzero(self.voxels), self.dims))
        coords.flags.writeable = False
        return coords

    @cached_property
    def neighbor_pairs(self) -> NeighborPairs:
        """26-neighbor pairs of the foreground voxels, computed once per mask: shape
        and every image on the mask (an original and its wavelet subbands) read them.
        Each unordered pair comes once, as row indices into ``coords``; an empty
        mask has none."""
        if not self.count:
            return NeighborPairs(*np.zeros((3, 0), dtype=np.intp))
        origin = self.coords.min(axis=0) - 1
        pos = self.coords - origin
        shape = pos.max(axis=0) + 2  # a one-voxel margin keeps every neighbor in bounds
        index = np.full(shape, -1, dtype=np.intp)
        index[tuple(pos.T)] = np.arange(self.count)
        strides = np.array([shape[1] * shape[2], shape[2], 1])
        neighbor = index.ravel()[(pos @ strides)[:, None] + np.asarray(DIRECTIONS_13) @ strides]
        a, direction = np.nonzero(neighbor >= 0)
        return NeighborPairs(a, neighbor[a, direction], direction)

    @cached_property
    def pairs_per_direction(self) -> np.ndarray:
        """The number of neighbor pairs along each of the 13 directions, in
        ``DIRECTIONS_13`` order: GLCM's matrix totals and the surface area read it."""
        counts = np.bincount(self.neighbor_pairs.direction, minlength=len(DIRECTIONS_13))
        counts.flags.writeable = False
        return counts


def check_aligned(img: VolumeImage, mask: RoiMask) -> None:
    """Volumes and masks must share a grid; mismatches are hard errors (no resampling)."""
    if img.dims != mask.dims:
        raise DataError(f"volume dims {img.dims} do not match mask dims {mask.dims}")


def require_nonempty(mask: RoiMask) -> None:
    if mask.count == 0:
        raise DataError("ROI mask has no foreground voxels")


# ---------------------------------------------------------------------------
# File I/O


def _infer_format(path: Path) -> str:
    if path.suffix == ".json":
        return FORMAT_RAWJSON
    if path.suffix == ".nii":
        return FORMAT_NIFTI
    raise DataError(f"cannot infer volume format from {path.name!r} (expected .json or .nii)")


class _Payload(NamedTuple):
    """A volume file's header fields and its voxel values, flat and x-fastest as stored."""

    values: np.ndarray  # the payload's dtype, or float64 once NIfTI scaling applies
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    modality: str


# bytes of output per block of the transposing copy: small enough for a core's L2 cache
_BLOCK_BYTES = 1 << 18


def _c_order(values: np.ndarray, dims: tuple[int, int, int], dtype) -> np.ndarray:
    """The x-fastest flat ``values`` as a C-ordered ``[x, y, z]`` array of ``dtype``.

    The copy runs one block of y planes at a time: a whole-volume transposed
    copy reads or writes with the stride of a z plane, and thrashes the cache.
    """
    nx, ny, nz = dims
    src = values.reshape(nz, ny, nx)
    out = np.empty(dims, dtype)
    step = max(1, _BLOCK_BYTES // (nx * nz * out.itemsize))
    for y in range(0, ny, step):
        out[:, y : y + step] = src[:, y : y + step].T
    return out


def read_volume(path: str | Path) -> VolumeImage:
    """Load a volume from disk.

    The file stores its voxels x-fastest; the array is C-ordered ``[x, y, z]``
    float64 (z fastest), as every volume is. The order matters beyond speed:
    whole-volume sums such as the normalization statistics run in memory
    order, and that order sets the bits of their results.
    """
    payload = _read_payload(path)
    voxels = _c_order(payload.values, payload.dims, np.float64)
    voxels.flags.writeable = False  # so the image holds it without a copy
    return VolumeImage(voxels, payload.spacing, payload.modality)


def read_mask(path: str | Path) -> RoiMask:
    """Load a mask: the voxels of a volume file above 0.5.

    The file is parsed and checked as by :func:`read_volume`, with the same
    errors, but no float64 volume is built.
    """
    payload = _read_payload(path)
    return RoiMask(_c_order(payload.values > 0.5, payload.dims, bool))


def _read_payload(path: str | Path) -> _Payload:
    """A volume file's payload, its values and header checked as a VolumeImage checks its own."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"volume file not found: {path}")
    if _infer_format(path) == FORMAT_RAWJSON:
        payload, nonfinite = _read_rawjson(path)
    else:
        payload, nonfinite = _read_nifti(path)
    # VolumeImage's checks, in its order
    if payload.values.dtype.kind == "f" and not np.all(np.isfinite(payload.values)):
        raise DataError(nonfinite)
    return payload._replace(spacing=_checked_header(payload.spacing, payload.modality))


def write_volume(img: VolumeImage, path: str | Path, format: str | None = None) -> Path:
    """Write a volume to disk (float32 payload for both formats)."""
    path = Path(path)
    fmt = format or _infer_format(path)
    if fmt == FORMAT_RAWJSON:
        return _write_rawjson(img, path)
    if fmt == FORMAT_NIFTI:
        return _write_nifti(img, path)
    raise DataError(f"unsupported volume format {fmt!r}")


def _read_rawjson(path: Path) -> tuple[_Payload, str]:
    """A RAWJSON file's payload, spacing unchecked, and its error text for a non-finite voxel."""
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
    payload = _Payload(np.frombuffer(raw, dtype="<f4"), tuple(dims), spacing, meta.get("modality", "MR"))
    return payload, "volume contains non-finite voxels"


def _json_triple(value, kinds) -> bool:
    """A JSON array of three values of ``kinds``; bools are not numbers."""
    return (
        isinstance(value, list)
        and len(value) == 3
        and all(isinstance(v, kinds) and not isinstance(v, bool) for v in value)
    )


def _write_rawjson(img: VolumeImage, path: Path) -> Path:
    if path.suffix != ".json":
        path = path.with_suffix(".json")
    raw_name = path.stem + ".raw"
    payload = np.asarray(img.voxels, dtype="<f4").ravel(order="F").tobytes()
    (path.parent / raw_name).write_bytes(payload)
    meta = {
        "dims": list(img.dims),
        "spacing": list(img.spacing),
        "dtype": "f32",
        "data_file": raw_name,
        "modality": img.modality,
    }
    path.write_text(json.dumps(meta, indent=2) + "\n")
    return path


def _read_nifti(path: Path) -> tuple[_Payload, str]:
    """A NIfTI-1 file's payload and its error text for a non-finite voxel."""
    buf = path.read_bytes()
    if len(buf) < 352:
        raise DataError(f"NIfTI file too short ({len(buf)} bytes): {path}")
    (sizeof_hdr,) = struct.unpack_from("<i", buf, 0)
    if sizeof_hdr != 348:
        raise DataError(f"malformed NIfTI header (sizeof_hdr={sizeof_hdr}; big-endian unsupported)")
    if buf[344:348] != _NIFTI_MAGIC:
        raise DataError(f"malformed NIfTI header (bad magic {buf[344:348]!r})")
    dim = struct.unpack_from("<8h", buf, 40)
    ndim = dim[0]
    if not 3 <= ndim <= 7 or any(d != 1 for d in dim[4 : ndim + 1]):
        raise DataError(f"unsupported NIfTI dimensionality dim={list(dim)} (need 3D)")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in dims):
        raise DataError(f"malformed NIfTI header (dims {dims})")
    (datatype,) = struct.unpack_from("<h", buf, 70)
    if datatype not in _NIFTI_DTYPES:
        raise DataError(f"unsupported scalar type (NIfTI datatype code {datatype}; only int16/float32)")
    dtype = _NIFTI_DTYPES[datatype]
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
    values = np.frombuffer(buf, dtype=dtype, count=nvox, offset=start)
    if slope not in (0.0, 1.0) or inter != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite voxel fails the finite check
            values = values.astype(np.float64) * float(slope) + float(inter)
    return _Payload(values, dims, spacing, "MR"), f"NIfTI volume contains non-finite voxels: {path}"


def _write_nifti(img: VolumeImage, path: Path) -> Path:
    if path.suffix != ".nii":
        path = path.with_suffix(".nii")
    hdr = bytearray(352)
    struct.pack_into("<i", hdr, 0, 348)
    nx, ny, nz = img.dims
    struct.pack_into("<8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, 16)  # float32
    struct.pack_into("<h", hdr, 72, 32)
    sx, sy, sz = img.spacing
    struct.pack_into("<8f", hdr, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)
    hdr[344:348] = _NIFTI_MAGIC
    payload = np.asarray(img.voxels, dtype="<f4").ravel(order="F").tobytes()
    path.write_bytes(bytes(hdr) + payload)
    return path


# ---------------------------------------------------------------------------
# Intensity normalization

# white-stripe: quantile half-width around the peak, histogram bins, fewest window voxels
WHITE_STRIPE_TAU = 0.05
WHITE_STRIPE_BINS = 256
WHITE_STRIPE_MIN_WINDOW = 10


def zscore_stats(values: np.ndarray) -> tuple[float, float]:
    """Mean and population std of ``np.ravel(values)``, in its order; a zero std is an error ("constant image")."""
    flat = np.ravel(values)
    mu, sigma = float(flat.mean()), float(flat.std())
    if sigma == 0.0:
        raise DataError("constant image: zero variance over the normalization region")
    return mu, sigma


def white_stripe_stats(values: np.ndarray, maps=()) -> tuple[float, float]:
    """Offset and scale of the dominant bright-tissue histogram peak of
    ``values``, or of ``values`` under ``maps``, the steps before it (as ``apply_maps`` takes them).

    The offset is the center of the largest smoothed-histogram peak strictly
    above the median (256 bins, 7-bin binomial smoothing); the scale is the
    population std of the values inside the quantile window
    ``[q(p_peak - tau), q(p_peak + tau)]`` around that peak.

    The histogram, the median, ``p_peak`` and the quantiles all come from one
    sort of ``values``, with the arithmetic of ``np.histogram``, ``np.median``
    and ``np.quantile``; the window's std sums in the order of ``values``.
    The sorted copy is the one buffer of ``values``' size, sorted raw and then
    mapped in place: a map ``(v - mu) / sigma`` with ``sigma > 0`` is monotone,
    rounding included, so these are the sorted mapped values, bit for bit. The
    window is gathered block by block in the order of ``values``, each block
    mapped on its own.
    """
    values = values.ravel()
    ordered = values.astype(np.result_type(values, 1.0))  # the dtype of a mapped value
    ordered.sort()
    for mu, sigma in maps:  # the arithmetic of apply_maps, in place
        ordered -= mu
        ordered /= sigma
    n = ordered.size
    lo, hi = float(ordered[0]), float(ordered[-1])
    if lo == hi:
        raise DataError("no histogram peak above the masked median (constant region)")
    edges = np.histogram_bin_edges(ordered, bins=WHITE_STRIPE_BINS, range=(lo, hi))
    # np.histogram's bins are half-open but the last, which holds the maximum
    hist = np.diff(np.searchsorted(ordered, edges[:-1], side="left"), append=n)
    centers = (edges[:-1] + edges[1:]) / 2.0
    kernel = np.array([1, 6, 15, 20, 15, 6, 1], dtype=np.float64) / 64.0
    smoothed = np.convolve(hist.astype(np.float64), kernel, mode="same")
    half = n // 2
    med = float(ordered[half]) if n % 2 else (float(ordered[half - 1]) + float(ordered[half])) / 2.0
    candidates = np.nonzero(centers > med)[0]
    if candidates.size == 0 or smoothed[candidates].max() == 0.0:
        raise DataError("no histogram peak above the masked median")
    peak_idx = int(candidates[np.argmax(smoothed[candidates])])
    mu_ws = float(centers[peak_idx])
    p_peak = int(np.searchsorted(ordered, mu_ws, side="right")) / n
    p_lo, p_hi = max(0.0, p_peak - WHITE_STRIPE_TAU), min(1.0, p_peak + WHITE_STRIPE_TAU)
    q_lo, q_hi = _sorted_quantile(ordered, p_lo), _sorted_quantile(ordered, p_hi)
    del ordered  # a whole-volume copy: not held through the window's gather
    step = _BLOCK_BYTES // values.itemsize
    parts = []
    for start in range(0, values.size, step):
        block = apply_maps(values[start : start + step], maps)
        # the elements of block[mask], in a third of boolean indexing's time
        parts.append(np.compress((block >= q_lo) & (block <= q_hi), block))
    window = np.concatenate(parts)
    if window.size < WHITE_STRIPE_MIN_WINDOW:
        raise DataError(f"white-stripe window contains {window.size} voxels (< {WHITE_STRIPE_MIN_WINDOW})")
    sigma_ws = float(window.std())
    if sigma_ws == 0.0:
        raise DataError("constant image: zero variance in the white-stripe window")
    return mu_ws, sigma_ws


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` (linear method) from the sorted values, in its arithmetic."""
    index = (ordered.size - 1) * q
    if index >= ordered.size - 1:
        return float(ordered[-1])
    below = math.floor(index)
    t = index - below
    a, b = float(ordered[below]), float(ordered[below + 1])
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t
