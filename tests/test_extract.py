import re

import numpy as np
import pytest

import radrisk.features.extract as extract_module
from radrisk import SUBBAND_LABELS, RoiMask, VolumeImage, decompose, get_bank
from radrisk.errors import DataError, NumericalError
from radrisk.features import (
    TEXTURE_FAMILIES,
    ExtractionConfig,
    discretize,
    extract_all,
    feature_names,
    firstorder_features,
    shape_features,
    texture_features,
)
from radrisk.featurestore import FeatureStore, read_features_csv, write_features_csv


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(80)
    img = VolumeImage(rng.normal(60, 10, size=(9, 9, 9)))
    mask_arr = np.zeros((9, 9, 9), dtype=bool)
    mask_arr[2:7, 2:7, 2:7] = rng.uniform(size=(5, 5, 5)) < 0.7
    mask_arr[4, 4, 4] = True
    return img, RoiMask(mask_arr)


def test_original_only_count_is_98(pair):
    img, mask = pair
    cfg = ExtractionConfig(n_bins=16, wavelet=None)
    row = extract_all(img, mask, cfg)
    assert row.shape == (98,) and row.dtype == np.float64
    assert len(feature_names(cfg)) == 98


def test_wavelet_count_is_770(pair):
    img, mask = pair
    cfg = ExtractionConfig(n_bins=16, wavelet="haar")
    row = extract_all(img, mask, cfg)
    assert row.shape == (98 + 8 * (16 + 22 + 16 + 16 + 14),)
    assert row.shape == (770,)
    assert len(feature_names(cfg)) == 770


def test_naming_grammar():
    names = feature_names(ExtractionConfig(n_bins=16, wavelet="haar"))
    grammar = re.compile(r"^(original|wavelet-[LH]{3})-(shape|firstorder|glcm|glrlm|glszm|gldm)-\w+$")
    assert all(grammar.match(name) for name in names)
    assert len(set(names)) == len(names)
    # names used in published correlation rankings must exist verbatim
    for name in (
        "original-shape-SurfaceVolumeRatio",
        "original-shape-MajorAxisLength",
        "original-shape-Maximum2DDiameterRow",
        "wavelet-LHL-firstorder-Range",
        "wavelet-HHL-firstorder-Maximum",
        "wavelet-HHL-firstorder-Range",
    ):
        assert name in names
    original = feature_names(ExtractionConfig(n_bins=16, wavelet=None))
    assert names[: len(original)] == original
    for name in (
        "original-shape-Sphericity",
        "original-shape-Elongation",
        "original-glszm-SizeZoneNonUniformityNormalized",
    ):
        assert name in original


def test_gldm_table_names():
    names = feature_names(ExtractionConfig(n_bins=16, wavelet=None))
    for name in (
        "original-gldm-LargeDependenceLowGrayLevelEmphasis",
        "original-gldm-SmallDependenceHighGrayLevelEmphasis",
        "original-gldm-SmallDependenceEmphasis",
    ):
        assert name in names


def test_determinism_bitwise(pair):
    img, mask = pair
    cfg = ExtractionConfig(n_bins=16, wavelet="coif1")
    a = extract_all(img, mask, cfg)
    b = extract_all(img, mask, cfg)
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_all_values_finite(pair):
    img, mask = pair
    row = extract_all(img, mask, ExtractionConfig(n_bins=16, wavelet="haar"))
    assert np.isfinite(row).all()


def test_non_finite_values_named_by_feature(pair, monkeypatch):
    img, mask = pair

    def nan_glcm(droi, family):
        feats = texture_features(droi, family)
        return {**feats, "Contrast": float("nan")} if family == "glcm" else feats

    monkeypatch.setattr(extract_module, "texture_features", nan_glcm)
    with pytest.raises(NumericalError, match=r"'original-glcm-Contrast', 'wavelet-LLL-glcm-Contrast'.*\.\.\."):
        extract_all(img, mask, ExtractionConfig(n_bins=16, wavelet="haar"))


def test_misaligned_mask_rejected(pair):
    img, _ = pair
    with pytest.raises(DataError, match="match"):
        extract_all(img, RoiMask(np.ones((3, 3, 3), bool)), ExtractionConfig())


def test_feature_csv_roundtrip(tmp_path, pair):
    img, mask = pair
    cfg = ExtractionConfig(n_bins=8, wavelet=None)
    keys = [("L1", "followup", "2010-01-01"), ("L1", "planning_mr", "2009-10-01"),
            ("L1", "planning_ct", "2009-10-01")]
    rows = [extract_all(img, mask, cfg) for _ in keys]
    store = FeatureStore(feature_names(cfg), keys, np.array(rows))
    path = write_features_csv(tmp_path / "f.csv", store, store.keys, "config: {}")
    back = read_features_csv(path)
    assert back.keys == keys and back.names == feature_names(cfg)
    for row, back_row in zip(rows, back.values.tolist()):
        assert back_row == row.tolist()  # repr round-trip is exact


def _store(keys, names=("original-shape-Volume", "wavelet-LLL-firstorder-Mean")):
    values = np.arange(len(keys) * len(names), dtype=np.float64).reshape(len(keys), len(names)) / 3.0
    return FeatureStore(list(names), keys, values)


def test_feature_csv_quotes_keys(tmp_path):
    keys = [("P,0001-L1", "followup", "2010-01-01"), ('P"2-L1', "planning_mr", "2009-10-01"),
            ("#3,\n", "planning_ct", "2009-10-01"), ("P4-L1", "followup", "2010-02-01")]
    store = _store(keys)
    path = write_features_csv(tmp_path / "f.csv", store, keys, "config: {}")
    lines = path.read_text().splitlines()
    assert lines[-1].startswith("P4-L1,followup,2010-02-01,")  # plain ids keep their bytes
    back = read_features_csv(path)
    assert back.keys == keys and back.names == store.names
    assert np.array_equal(back.values.view(np.int64), store.values.view(np.int64))


@pytest.mark.parametrize("header, rows, match", [
    ("original-shape-Volume,original-shape-Volume", ["L1,followup,2010-01-01,1.0,2.0"], "duplicate feature"),
    ("original-shape-Volume", ["L1,followup,2010-01-01,1.0", "L1,followup,2010-01-01,2.0"], "duplicate row"),
    ("original-shape-Volume,shape-Sphericity", ["L1,followup,2010-01-01,1.0,2.0"], "filter"),
    ("original-shape-Volume", ["L1,followup,2010-01-01,1.0", "L1,planning_mr,2009-01-01,1.0,2.0"],
     r"row width 5 != header 4"),
    ("original-shape-Volume", ["L1,followup,2010-01-01,1.0,2.0"], r"row width 5 != header 4"),
    ("original-shape-Volume", ["L1,followup,2010-01-01,x"], r"bad value in row \['L1', 'followup'"),
    ("original-shape-Volume", ["L1,pet,2010-01-01,1.0"], "unknown role 'pet'"),
])
def test_feature_csv_refuses_ambiguous_tables(tmp_path, header, rows, match):
    path = tmp_path / "f.csv"
    path.write_text("\n".join(["# config: {}", "lesion_id,role,date," + header, *rows]) + "\n")
    with pytest.raises(DataError, match=match):
        read_features_csv(path)


def test_feature_store_merge_and_columns():
    old = _store([("L1", "followup", "2010-01-01"), ("L2", "followup", "2010-01-01")])
    new = _store([("L2", "followup", "2010-01-01"), ("L3", "followup", "2010-01-01")])
    merged = old.merged(new)
    assert merged.keys == [("L1", "followup", "2010-01-01")] + new.keys
    assert merged.values[1:].tolist() == new.values.tolist()
    with pytest.raises(DataError, match="inconsistent feature columns"):
        old.merged(_store(new.keys, names=("original-shape-Volume",)))
    with pytest.raises(DataError, match="inconsistent feature columns"):
        old.merged(_store(new.keys, names=("original-shape-Volume", "wavelet-LLH-firstorder-Mean")))


def full_volume_reference(img, mask, cfg):
    """extract_all's features by name, with every subband computed on the whole volume."""
    out = {f"original-shape-{name}": value for name, value in shape_features(mask, img.spacing).items()}
    images = {"original": img}
    if cfg.wavelet:
        subbands = decompose(img, get_bank(cfg.wavelet))
        images.update({f"wavelet-{label}": subbands[label] for label in SUBBAND_LABELS})
    for prefix, image in images.items():
        out.update({f"{prefix}-firstorder-{k}": v for k, v in firstorder_features(image, mask).items()})
        droi = discretize(image, mask, cfg.n_bins)
        for family in TEXTURE_FAMILIES:
            out.update({f"{prefix}-{family}-{k}": v for k, v in texture_features(droi, family).items()})
    return out


@pytest.mark.parametrize("wavelet", ["haar", "coif1", None])
def test_feature_names_follow_the_reference_order(pair, wavelet):
    img, mask = pair
    cfg = ExtractionConfig(n_bins=16, wavelet=wavelet)
    ref = full_volume_reference(img, mask, cfg)
    assert feature_names(cfg) == list(ref)
    assert np.array_equal(extract_all(img, mask, cfg).view(np.int64), np.array(list(ref.values())).view(np.int64))


@pytest.mark.parametrize("wavelet", ["haar", "coif1"])
def test_roi_box_matches_full_volume_exactly(wavelet, monkeypatch):
    seen = []

    def recording_decompose(img, bank):
        seen.append(img.dims)
        return decompose(img, bank)

    monkeypatch.setattr(extract_module, "decompose", recording_decompose)
    rng = np.random.default_rng(81)
    dims = (14, 13, 12)
    img = VolumeImage(rng.normal(60, 10, size=dims), (0.8, 1.1, 2.0))
    margin = get_bank(wavelet).low.size - 1
    interior = (slice(6, 10), slice(6, 10), slice(7, 11))
    # a ROI on the low face of each axis, where the box keeps that whole axis
    faces = [tuple(slice(0, 3) if a == axis else slice(5, 9) for a in range(3)) for axis in range(3)]
    for box in [interior] + faces:
        fg = np.zeros(dims, dtype=bool)
        fg[box] = rng.uniform(size=fg[box].shape) < 0.7
        fg[tuple(s.start for s in box)] = True
        mask = RoiMask(fg)
        cfg = ExtractionConfig(n_bins=16, wavelet=wavelet)
        got = dict(zip(feature_names(cfg), extract_all(img, mask, cfg).tolist()))
        ref = full_volume_reference(img, mask, cfg)
        assert list(got) == list(ref)
        assert all(got[k] == ref[k] for k in ref), [k for k in ref if got[k] != ref[k]][:5]
        coords = mask.coords
        expected = tuple(
            n if lo - margin < 0 else hi + 1 - (lo - margin)
            for n, lo, hi in zip(dims, coords.min(axis=0), coords.max(axis=0))
        )
        assert seen.pop() == expected
