import math

import numpy as np
import pytest

from radrisk import (
    ConfigError, DataError, ExtractionConfig, RoiMask, VolumeImage, white_stripe_stats, zscore_stats,
)
from radrisk.features import extract_all
from radrisk.featurestore import ROLE_FOLLOWUP, ROLE_PLAN_CT, ROLE_PLAN_MR
from radrisk.pipeline import normalize_volume
from radrisk.volume import _sorted_quantile, apply_maps
from helpers import traced_peak, vol3d
from oracles import bf_normalize, bf_whitestripe_peak, quantile_white_stripe_stats


def _apply(values, stats):
    mu, sigma = stats(values)
    return (values - mu) / sigma


def _bimodal(rng, n, bright=0.7):
    values = np.concatenate([
        rng.normal(100.0, 3.0, size=int(n * bright)),
        rng.normal(40.0, 3.0, size=n - int(n * bright)),
    ])
    rng.shuffle(values)
    return values


def test_z_normalize_hand_values():
    mu, sigma = zscore_stats(np.array([2.0, 4.0, 6.0, 8.0]))
    s5 = math.sqrt(5.0)
    assert mu == 5.0
    assert sigma == pytest.approx(s5, abs=1e-15)
    expected = np.array([-3 / s5, -1 / s5, 1 / s5, 3 / s5])
    assert np.allclose((np.array([2.0, 4.0, 6.0, 8.0]) - mu) / sigma, expected, atol=1e-12)


def test_z_normalize_constant_errors():
    with pytest.raises(DataError, match="constant image"):
        zscore_stats(np.full(4, 3.0))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int16])
def test_zscore_stats_are_numpys_mean_and_std(dtype):
    """The mean once and the deviations once, with ``np.mean``'s and ``np.std``'s bits, the std's division and
    root in the deviations' dtype (float32 for a float32 array); strided arrays sum in their own order."""
    rng = np.random.default_rng(np.dtype(dtype).num)
    for trial in range(300):
        values = rng.normal(rng.uniform(-50, 50), rng.uniform(0.1, 300), size=int(rng.integers(2, 3000))).astype(dtype)
        if trial % 4 == 1:
            values = values[:: int(rng.integers(2, 5))]
        if values.size < 2 or values.min() == values.max():
            continue
        mu, sigma = zscore_stats(values)
        assert (mu, sigma) == (float(values.mean()), float(values.std())), trial
        assert type(values.std()) is (np.float32 if dtype is np.float32 else np.float64)


def test_z_normalize_output_statistics():
    rng = np.random.default_rng(2)
    out = _apply(rng.normal(40, 7, size=120), zscore_stats)
    assert abs(out.mean()) < 1e-9
    assert abs(out.std() - 1.0) < 1e-9
    # idempotence: renormalizing changes nothing
    mu, sigma = zscore_stats(out)
    assert np.allclose((out - mu) / sigma, out, atol=1e-9)
    assert mu == pytest.approx(0.0, abs=1e-12)
    assert sigma == pytest.approx(1.0, abs=1e-12)


def test_whitestripe_bimodal_against_histogram_scan():
    values = _bimodal(np.random.default_rng(4), 4000)
    mu, sigma = white_stripe_stats(values)
    assert mu == pytest.approx(bf_whitestripe_peak(values.tolist()), abs=1e-9)
    assert abs(mu - 100.0) < 2.0
    # sigma per definition: population std inside the +-tau quantile window
    p_peak = float(np.mean(values <= mu))
    q_lo, q_hi = np.quantile(values, [max(0.0, p_peak - 0.05), min(1.0, p_peak + 0.05)])
    window = values[(values >= q_lo) & (values <= q_hi)]
    assert sigma == pytest.approx(float(window.std()), rel=1e-12)
    assert 0.0 < sigma < 3.0  # a stripe slice is tighter than the full cluster


def test_whitestripe_unimodal_single_candidate():
    # diffuse 0..99 plus one tight cluster above the median: the only peak
    mu, _ = white_stripe_stats(np.array([float(v) for v in range(100)] + [70.3] * 30))
    assert abs(mu - 70.3) < 0.5


def test_whitestripe_no_peak_above_median():
    with pytest.raises(DataError, match="no histogram peak"):
        white_stripe_stats(np.array([5.0] * 99 + [4.0]))  # max == median


def test_whitestripe_small_window_errors():
    with pytest.raises(DataError, match="window contains 0 voxels"):
        white_stripe_stats(np.array([10.0] * 4 + [20.0] * 4))


def _stats_or_error(stats, values):
    try:
        return stats(values)
    except DataError as exc:
        return str(exc)


def _tied_peaks(rng, n):
    """Two equal spikes above the median: the histogram's largest bins tie."""
    spike = n // 4
    values = np.concatenate([rng.uniform(0.0, 50.0, size=n - 2 * spike), np.full(spike, 70.0), np.full(spike, 90.0)])
    rng.shuffle(values)
    return values


def _at_bin_centers(rng, n):
    """Values on the 256 bin centers of [0, 256], so the peak's center is itself a value."""
    values = np.floor(rng.normal(170.0, 30.0, size=n)).clip(0, 255) + 0.5
    values[:2] = 0.0, 256.0
    rng.shuffle(values)
    return values


_WHITE_STRIPE_INPUTS = {
    "normal": lambda rng, n: rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 10.0), size=n),
    "7 levels": lambda rng, n: rng.integers(0, 7, size=n).astype(np.float64),
    "rounded gamma": lambda rng, n: np.round(rng.gamma(rng.uniform(0.5, 4.0), 3.0, size=n)),
    "bimodal": lambda rng, n: _bimodal(rng, n, bright=rng.uniform(0.3, 0.8)),
    "tied peaks": _tied_peaks,
    "at bin centers": _at_bin_centers,
}


@pytest.mark.parametrize("kind", list(_WHITE_STRIPE_INPUTS))
def test_white_stripe_equals_the_quantile_oracle(kind):
    rng = np.random.default_rng(list(_WHITE_STRIPE_INPUTS).index(kind))
    errors = 0
    for trial in range(150):
        n = int(rng.integers(10, 5001)) if trial % 3 else int(rng.integers(10, 40))
        values = _WHITE_STRIPE_INPUTS[kind](rng, n)
        want = _stats_or_error(quantile_white_stripe_stats, values)
        assert _stats_or_error(white_stripe_stats, values) == want, (kind, trial, n)
        errors += isinstance(want, str)
    assert errors < 150  # most inputs have a white stripe


def test_sorted_quantile_is_numpys_linear_quantile():
    rng = np.random.default_rng(12)
    for trial in range(400):
        ordered = np.sort(np.round(rng.normal(size=int(rng.integers(1, 300))) * 8.0) / 8.0 * rng.uniform(0.1, 1e3))
        for q in (0.0, 1.0, rng.uniform(), rng.uniform(0.9, 1.0), float(rng.integers(0, 20)) / 20):
            assert _sorted_quantile(ordered, q) == np.quantile(ordered, q), (trial, q)


def test_normalizations_affine_equivariant():
    values = _bimodal(np.random.default_rng(5), 3000, bright=0.65)
    for stats in (zscore_stats, white_stripe_stats):
        assert np.allclose(_apply(values, stats), _apply(2.5 * values + 17.0, stats), atol=1e-6)


@pytest.mark.parametrize("zscore", [True, False])
@pytest.mark.parametrize("whitestripe", ["mr", "none"])
def test_normalize_volume_matches_two_pass_oracle(zscore, whitestripe):
    rng = np.random.default_rng(7)
    cfg = ExtractionConfig(zscore=zscore, whitestripe=whitestripe)
    for dims in ((20, 20, 10), (13, 7, 5), (9, 1, 40)):
        n = dims[0] * dims[1] * dims[2]
        img = vol3d(_bimodal(rng, n).reshape(dims) * rng.uniform(0.5, 3.0))
        for role in (ROLE_PLAN_MR, ROLE_FOLLOWUP):
            want = bf_normalize(img.voxels, zscore, whitestripe == "mr")
            assert np.array_equal(apply_maps(img.voxels, normalize_volume(img, role, cfg)), want)
        # the planning CT is never white-striped, whatever its header says
        ct = apply_maps(img.voxels, normalize_volume(img, ROLE_PLAN_CT, cfg))
        assert np.array_equal(ct, bf_normalize(img.voxels, zscore, False))


_FILE_LIKE_VOLUMES = {
    "float32 bimodal": lambda rng, n: _bimodal(rng, n).astype(np.float32).astype(np.float64),
    "int16 levels": lambda rng, n: rng.integers(-1000, 1400, size=n).astype(np.float64),
    "few levels with zeros": lambda rng, n: rng.integers(-2, 5, size=n).astype(np.float64),
}


@pytest.mark.parametrize("kind", list(_FILE_LIKE_VOLUMES))
def test_normalize_volume_of_file_like_voxels_matches_the_oracle(kind):
    """Voxels of a float32 or int16 file, many of them tied, give the two-pass oracle's volume."""
    rng = np.random.default_rng(list(_FILE_LIKE_VOLUMES).index(kind) + 20)
    for dims in ((20, 20, 10), (13, 7, 5)):
        img = vol3d(_FILE_LIKE_VOLUMES[kind](rng, dims[0] * dims[1] * dims[2]).reshape(dims))
        for zscore in (True, False):
            want = bf_normalize(img.voxels, zscore, True)
            maps = normalize_volume(img, ROLE_FOLLOWUP, ExtractionConfig(zscore=zscore))
            assert np.array_equal(apply_maps(img.voxels, maps), want)


def test_white_stripe_under_maps_is_white_stripe_of_the_mapped_values():
    """White-stripe sorts the raw values and maps the sorted copy in place, and maps the window's blocks one by
    one: the statistics of the mapped values, bit for bit, for float64, float32 and integer values."""
    rng = np.random.default_rng(13)
    for trial in range(200):
        n = int(rng.integers(10, 4000))
        values = np.round(_bimodal(rng, n, bright=rng.uniform(0.3, 0.8)) * rng.choice([1.0, 4.0, 1e3]))
        values = values.astype((np.float64, np.float32, np.int32)[trial % 3])
        maps = tuple((rng.normal() * 10, rng.uniform(1e-3, 1e3)) for _ in range(trial % 3))
        want = _stats_or_error(white_stripe_stats, apply_maps(values, maps))
        assert _stats_or_error(lambda v: white_stripe_stats(v, maps), values) == want, trial
    values = _bimodal(rng, 3000).astype(np.float32)  # sorted, binned and windowed as float32, as the oracle does
    assert white_stripe_stats(values) == quantile_white_stripe_stats(values)


def _ellipsoid(dims, center, radii):
    grid = np.indices(dims)
    return RoiMask(sum(((g - c) / r) ** 2 for g, c, r in zip(grid, center, radii)) <= 1.0)


@pytest.mark.parametrize("zscore", [True, False])
@pytest.mark.parametrize("whitestripe", ["mr", "none"])
def test_extraction_maps_the_roi_box_as_the_whole_volume(zscore, whitestripe):
    """extract_all maps only the box that it reads. Its row is that of the whole normalized volume, with the
    ROI inside the volume, touching index 0 on x (the box keeps the whole axis), and without the wavelet."""
    rng = np.random.default_rng(9)
    dims = (40, 36, 28)
    img = vol3d(_bimodal(rng, 40 * 36 * 28).reshape(dims) * 2.5 + 7.0)
    inside, at_zero = _ellipsoid(dims, (20, 17, 14), (6, 5, 4)), _ellipsoid(dims, (2, 17, 14), (5, 5, 4))
    assert at_zero.coords[:, 0].min() == 0
    for role in (ROLE_PLAN_MR, ROLE_PLAN_CT, ROLE_FOLLOWUP):
        maps = normalize_volume(img, role, ExtractionConfig(zscore=zscore, whitestripe=whitestripe))
        whole = VolumeImage(apply_maps(img.voxels, maps), img.spacing, img.modality)
        for mask, wavelet in ((inside, "haar"), (at_zero, "haar"), (inside, "none")):
            config = ExtractionConfig(n_bins=8, wavelet=wavelet)
            assert extract_all(img, mask, config, maps).tobytes() == extract_all(whole, mask, config).tobytes()


def test_normalize_volume_holds_one_whole_volume_buffer_at_most():
    """On a 128x128x64 MR image the statistics take one float64 volume at a time (1.002 volumes measured), and
    only the maps are returned. Mapping the whole volume and copying the result took 2.0."""
    img = vol3d(_bimodal(np.random.default_rng(10), 128 * 128 * 64).reshape(128, 128, 64))
    for role in (ROLE_PLAN_MR, ROLE_PLAN_CT):
        _, peak = traced_peak(lambda: normalize_volume(img, role, ExtractionConfig()))
        assert peak <= 1.25 * img.voxels.nbytes, role


@pytest.mark.parametrize("zscore", [True, False])
@pytest.mark.parametrize("values", [
    [3.0] * 8,  # constant image
    [5.0] * 99 + [4.0],  # no peak above the median
    [10.0] * 4 + [20.0] * 4,  # white-stripe window too small
], ids=["constant", "no-peak", "small-window"])
def test_normalize_volume_errors_match_oracle(values, zscore):
    img = vol3d(np.array(values).reshape((len(values), 1, 1)))
    with pytest.raises(DataError) as want:
        bf_normalize(img.voxels, zscore, True)
    with pytest.raises(DataError) as got:
        normalize_volume(img, ROLE_PLAN_MR, ExtractionConfig(zscore=zscore))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kwargs", [
    {"whitestripe": "MR"}, {"whitestripe": "ct"}, {"whitestripe": None},
    {"zscore": 1}, {"zscore": "yes"}, {"zscore": None},
    {"wavelet": None}, {"wavelet": "db4"}, {"n_bins": 1},
])
def test_normalization_config_rejects_unknown_values(kwargs):
    """The normalization settings are checked where the other two extraction settings are, in the one
    ``ExtractionConfig``, and so are those two."""
    with pytest.raises(ConfigError):
        ExtractionConfig(**kwargs)
