"""Single-level undecimated 3D separable wavelet decomposition.

Each of the 8 subbands applies one filter per axis (L or H, label letter order
= axis order), as circular convolution with no downsampling, so every subband
keeps the source grid and stays aligned with the ROI mask. Built-in banks are
orthonormal, which makes the redundant transform a tight frame: the inverse is
the adjoint divided by 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .volume import VolumeImage

SUBBAND_LABELS = ("LLL", "LLH", "LHL", "LHH", "HLL", "HLH", "HHL", "HHH")


@dataclass(frozen=True)
class WaveletBank:
    name: str
    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.low, dtype=np.float64)
        high = np.asarray(self.high, dtype=np.float64)
        if low.size == 0 or high.size == 0:
            raise ConfigError("wavelet filters must be nonempty")
        low.flags.writeable = False
        high.flags.writeable = False
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)


def quadrature_bank(name: str, low) -> WaveletBank:
    """Build a bank from its low-pass filter via high[k] = (-1)^k low[L-1-k]."""
    low = np.asarray(low, dtype=np.float64)
    signs = np.array([(-1.0) ** k for k in range(low.size)])
    return WaveletBank(name, low, signs * low[::-1])


_SQRT7 = math.sqrt(7.0)
_COIF1_LOW = [
    (_SQRT7 - 3.0),
    (1.0 - _SQRT7),
    (14.0 - 2.0 * _SQRT7),
    (14.0 + 2.0 * _SQRT7),
    (5.0 + _SQRT7),
    (1.0 - _SQRT7),
]
_COIF1_LOW = [c / (16.0 * math.sqrt(2.0)) for c in _COIF1_LOW]

BANKS = {
    "haar": quadrature_bank("haar", [1.0 / math.sqrt(2.0)] * 2),
    "coif1": quadrature_bank("coif1", _COIF1_LOW),
}


def get_bank(name: str) -> WaveletBank:
    try:
        return BANKS[name]
    except KeyError:
        raise ConfigError(f"unknown wavelet bank {name!r} (available: {sorted(BANKS)})") from None


def _periodic(arr: np.ndarray, filt: np.ndarray, axis: int, step: int = 1) -> np.ndarray:
    # step 1 convolves: out[n] = sum_k filt[k] * arr[(n - k) mod N]; step -1
    # correlates (the adjoint): out[n] = sum_k filt[k] * arr[(n + k) mod N].
    # np.roll keeps shift equivariance bit-exact because the accumulation order
    # is index-free.
    out = np.zeros_like(arr)
    for k, c in enumerate(filt):
        out += c * np.roll(arr, step * k, axis=axis)
    return out


def subbands(voxels: np.ndarray, bank: WaveletBank) -> dict[str, np.ndarray]:
    """Compute all 8 undecimated subbands of a volume array, keyed LLL..HHH.

    Labels that share a prefix share its passes: L and H on axis 0, then on
    axis 1, then on axis 2: 2 + 4 + 8 = 14 convolutions, not 8 x 3 = 24. Each
    subband voxel sums the same terms in the same order either way.
    """
    partial = {"": voxels}
    for axis in range(3):
        partial = {
            prefix + letter: _periodic(arr, filt, axis)
            for prefix, arr in partial.items()
            for letter, filt in (("L", bank.low), ("H", bank.high))
        }
    return partial


def decompose(img: VolumeImage, bank: WaveletBank) -> dict[str, VolumeImage]:
    """The :func:`subbands` of an image, each as an image on its grid."""
    return {label: VolumeImage(arr, img.spacing, img.modality) for label, arr in subbands(img.voxels, bank).items()}


def reconstruct(subbands: dict[str, VolumeImage], bank: WaveletBank) -> VolumeImage:
    """Invert :func:`decompose` (max-abs error < 1e-10 for the built-in banks)."""
    total = None
    for label in SUBBAND_LABELS:
        arr = np.array(subbands[label].voxels, dtype=np.float64)
        for axis, letter in enumerate(label):
            filt = bank.low if letter == "L" else bank.high
            arr = _periodic(arr, filt, axis, step=-1)
        total = arr if total is None else total + arr
    ref = subbands["LLL"]
    return VolumeImage(total / 8.0, ref.spacing, ref.modality)
