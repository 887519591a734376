"""3D scalar volumes, ROI masks, file I/O and intensity normalization.

Two on-disk formats are supported:

* RAWJSON: ``<name>.json`` holding ``dims`` (3 ints), ``spacing`` (3 floats),
  ``dtype`` ("f32") and ``data_file`` (sibling raw file, little-endian float32,
  x-fastest order).
* Minimal NIfTI-1: uncompressed single file, little-endian, 348-byte header,
  magic ``n+1\\0``, datatype int16 or float32, spacing taken from pixdim.
  No affine handling, no compression, no resampling.

Volumes are immutable after construction; voxel arrays are indexed ``[x, y, z]``
and marked read-only. A mask computes its foreground coordinates and their
26-neighbor pairs once, on first use.

Intensity normalization is two statistics over a flat array of voxel values,
each an offset and a scale ``(mu, sigma)``: ``zscore_stats`` (mean and
population std) and ``white_stripe_stats`` (Shinohara et al., NeuroImage:
Clinical 2014). ``radrisk.pipeline.normalize_volume`` applies them as
``(v - mu) / sigma`` and decides which apply to which image.
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


def neighbor_pairs_of(coords: np.ndarray) -> NeighborPairs:
    """Every 26-neighbor pair of a voxel set, once per unordered pair, as row indices into ``coords``."""
    coords = np.asarray(coords, dtype=np.intp)
    origin = coords.min(axis=0) - 1
    pos = coords - origin
    shape = pos.max(axis=0) + 2  # a one-voxel margin keeps every neighbor in bounds
    index = np.full(shape, -1, dtype=np.intp)
    index[tuple(pos.T)] = np.arange(coords.shape[0])
    strides = np.array([shape[1] * shape[2], shape[2], 1])
    neighbor = index.ravel()[(pos @ strides)[:, None] + np.asarray(DIRECTIONS_13) @ strides]
    a, direction = np.nonzero(neighbor >= 0)
    return NeighborPairs(a, neighbor[a, direction], direction)


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
        try:
            spacing = tuple(float(s) for s in self.spacing)
        except (TypeError, ValueError, OverflowError):
            spacing = ()  # not three numbers: rejected below
        if len(spacing) != 3 or not all(math.isfinite(s) and s > 0 for s in spacing):
            raise DataError(f"spacing must be three finite positive floats, got {self.spacing}")
        if self.modality not in ("MR", "CT"):
            raise DataError(f"unknown modality {self.modality!r} (expected MR or CT)")
        vox = vox.copy()
        vox.flags.writeable = False
        object.__setattr__(self, "voxels", vox)
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape


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
        return int(self.voxels.sum())

    @cached_property
    def coords(self) -> np.ndarray:
        """Foreground voxel indices, (n, 3) in C order; computed once per mask."""
        coords = np.argwhere(self.voxels)
        coords.flags.writeable = False
        return coords

    @cached_property
    def neighbor_pairs(self) -> NeighborPairs:
        """26-neighbor pairs of the foreground voxels, computed once per mask.

        Every image on this mask (an original and its wavelet subbands) reads
        the same pairs.
        """
        return neighbor_pairs_of(self.coords)


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


def read_volume(path: str | Path, format: str | None = None, modality: str | None = None) -> VolumeImage:
    """Load a volume from disk. Voxel order is normalized to x-fastest."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"volume file not found: {path}")
    fmt = format or _infer_format(path)
    if fmt == FORMAT_RAWJSON:
        return _read_rawjson(path, modality)
    if fmt == FORMAT_NIFTI:
        return _read_nifti(path, modality)
    raise DataError(f"unsupported volume format {fmt!r}")


def write_volume(img: VolumeImage, path: str | Path, format: str | None = None) -> Path:
    """Write a volume to disk (float32 payload for both formats)."""
    path = Path(path)
    fmt = format or _infer_format(path)
    if fmt == FORMAT_RAWJSON:
        return _write_rawjson(img, path)
    if fmt == FORMAT_NIFTI:
        return _write_nifti(img, path)
    raise DataError(f"unsupported volume format {fmt!r}")


def _read_rawjson(path: Path, modality: str | None) -> VolumeImage:
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


def _read_nifti(path: Path, modality: str | None) -> VolumeImage:
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
    vox = np.frombuffer(buf[start:end], dtype=dtype).astype(np.float64)
    if slope not in (0.0, 1.0) or inter != 0.0:
        vox = vox * float(slope) + float(inter)
    if not np.all(np.isfinite(vox)):
        raise DataError(f"NIfTI volume contains non-finite voxels: {path}")
    return VolumeImage(vox.reshape(dims, order="F"), spacing, modality or "MR")


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
    """Mean and population std of ``values``; a zero std is an error ("constant image")."""
    mu = float(values.mean())
    sigma = float(values.std())
    if sigma == 0.0:
        raise DataError("constant image: zero variance over the normalization region")
    return mu, sigma


def white_stripe_stats(values: np.ndarray) -> tuple[float, float]:
    """Offset and scale of the dominant bright-tissue histogram peak of ``values``.

    The offset is the center of the largest smoothed-histogram peak strictly
    above the median (256 bins, 7-bin binomial smoothing); the scale is the
    population std of the values inside the quantile window
    ``[q(p_peak - tau), q(p_peak + tau)]`` around that peak.
    """
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        raise DataError("no histogram peak above the masked median (constant region)")
    hist, edges = np.histogram(values, bins=WHITE_STRIPE_BINS, range=(lo, hi))
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
    p_lo, p_hi = max(0.0, p_peak - WHITE_STRIPE_TAU), min(1.0, p_peak + WHITE_STRIPE_TAU)
    q_lo, q_hi = np.quantile(values, [p_lo, p_hi])
    window = values[(values >= q_lo) & (values <= q_hi)]
    if window.size < WHITE_STRIPE_MIN_WINDOW:
        raise DataError(f"white-stripe window contains {window.size} voxels (< {WHITE_STRIPE_MIN_WINDOW})")
    sigma_ws = float(window.std())
    if sigma_ws == 0.0:
        raise DataError("constant image: zero variance in the white-stripe window")
    return mu_ws, sigma_ws
