import re

import numpy as np
import pytest

import radrisk.features.extract as extract_module
from radrisk import SUBBAND_LABELS, RoiMask, VolumeImage, decompose, get_bank
from radrisk.errors import DataError
from radrisk.features import (
    TEXTURE_FAMILIES,
    ExtractionConfig,
    discretize,
    extract_all,
    firstorder_features,
    shape_features,
    texture_features,
)
from radrisk.featurestore import ROLE_TAGS, FeatureStore, read_features_csv, tag_names, write_features_csv


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
    fv = extract_all(img, mask, ExtractionConfig(n_bins=16, wavelet=None), "follow-up-mr")
    assert len(fv) == 98


def test_wavelet_count_is_770(pair):
    img, mask = pair
    fv = extract_all(img, mask, ExtractionConfig(n_bins=16, wavelet="haar"), "follow-up-mr")
    assert len(fv) == 98 + 8 * (16 + 22 + 16 + 16 + 14)
    assert len(fv) == 770


def test_naming_grammar(pair):
    img, mask = pair
    fv = extract_all(img, mask, ExtractionConfig(n_bins=16, wavelet="haar"), "follow-up-mr")
    grammar = re.compile(
        r"^follow-up-mr-(original|wavelet-[LH]{3})-(shape|firstorder|glcm|glrlm|glszm|gldm)-\w+$"
    )
    assert all(grammar.match(name) for name in fv)
    # names used in published correlation rankings must exist verbatim
    for name in (
        "follow-up-mr-original-shape-SurfaceVolumeRatio",
        "follow-up-mr-original-shape-MajorAxisLength",
        "follow-up-mr-original-shape-Maximum2DDiameterRow",
        "follow-up-mr-wavelet-LHL-firstorder-Range",
        "follow-up-mr-wavelet-HHL-firstorder-Maximum",
        "follow-up-mr-wavelet-HHL-firstorder-Range",
    ):
        assert name in fv
    fv_ct = extract_all(img, mask, ExtractionConfig(n_bins=16, wavelet=None), "Plan-ct")
    for name in (
        "Plan-ct-original-shape-Sphericity",
        "Plan-ct-original-shape-Elongation",
        "Plan-ct-original-glszm-SizeZoneNonUniformityNormalized",
    ):
        assert name in fv_ct


def test_gldm_table_names(pair):
    img, mask = pair
    fv = extract_all(img, mask, ExtractionConfig(n_bins=16, wavelet=None), "Plan-mr")
    for name in (
        "Plan-mr-original-gldm-LargeDependenceLowGrayLevelEmphasis",
        "Plan-mr-original-gldm-SmallDependenceHighGrayLevelEmphasis",
        "Plan-mr-original-gldm-SmallDependenceEmphasis",
    ):
        assert name in fv


def test_determinism_bitwise(pair):
    img, mask = pair
    cfg = ExtractionConfig(n_bins=16, wavelet="coif1")
    a = extract_all(img, mask, cfg, "follow-up-mr")
    b = extract_all(img, mask, cfg, "follow-up-mr")
    assert list(a) == list(b)
    assert all(a[k] == b[k] for k in a)


def test_all_values_finite(pair):
    img, mask = pair
    fv = extract_all(img, mask, ExtractionConfig(n_bins=16, wavelet="haar"), "follow-up-mr")
    assert all(np.isfinite(v) for v in fv.values())


def test_misaligned_mask_rejected(pair):
    img, _ = pair
    with pytest.raises(DataError, match="match"):
        extract_all(img, RoiMask(np.ones((3, 3, 3), bool)), ExtractionConfig(), "follow-up-mr")


def test_feature_csv_roundtrip(tmp_path, pair):
    img, mask = pair
    cfg = ExtractionConfig(n_bins=8, wavelet=None)
    vectors = [
        (("L1", "followup", "2010-01-01"), extract_all(img, mask, cfg, "follow-up-mr")),
        (("L1", "planning_mr", "2009-10-01"), extract_all(img, mask, cfg, "Plan-mr")),
        (("L1", "planning_ct", "2009-10-01"), extract_all(img, mask, cfg, "Plan-ct")),
    ]
    store = FeatureStore.from_vectors(vectors)
    assert [tag_names(ROLE_TAGS[key[1]], store.names) for key, _ in vectors] == [list(fv) for _, fv in vectors]
    path = write_features_csv(tmp_path / "f.csv", store, store.keys, "config: {}")
    back = read_features_csv(path)
    assert back.keys == store.keys and back.names == store.names
    for (key, fv), row in zip(vectors, back.values.tolist()):
        assert row == list(fv.values())  # repr round-trip is exact


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
        FeatureStore.from_vectors([(("L1", "followup", "d"), {"follow-up-mr-original-shape-Volume": 1.0}),
                                   (("L1", "planning_mr", "d"), {"Plan-mr-original-shape-Sphericity": 1.0})])


def full_volume_reference(img, mask, cfg, tag):
    """extract_all's features, with every subband computed on the whole volume."""
    out = {f"{tag}-original-shape-{name}": value for name, value in shape_features(mask, img.spacing).items()}
    subbands = decompose(img, get_bank(cfg.wavelet))
    images = {"original": img, **{f"wavelet-{label}": subbands[label] for label in SUBBAND_LABELS}}
    for prefix, image in images.items():
        out.update({f"{tag}-{prefix}-firstorder-{k}": v for k, v in firstorder_features(image, mask).items()})
        droi = discretize(image, mask, cfg.n_bins)
        for family in TEXTURE_FAMILIES:
            out.update({f"{tag}-{prefix}-{family}-{k}": v for k, v in texture_features(droi, family).items()})
    return out


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
        got = extract_all(img, mask, cfg, "Plan-mr")
        ref = full_volume_reference(img, mask, cfg, "Plan-mr")
        assert list(got) == list(ref)
        assert all(got[k] == ref[k] for k in ref), [k for k in ref if got[k] != ref[k]][:5]
        coords = mask.coords
        expected = tuple(
            n if lo - margin < 0 else hi + 1 - (lo - margin)
            for n, lo, hi in zip(dims, coords.min(axis=0), coords.max(axis=0))
        )
        assert seen.pop() == expected
