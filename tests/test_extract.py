import io
import json
import re

import numpy as np
import pytest

import radrisk.features.extract as extract_module
from radrisk import (
    SUBBAND_LABELS, RoiMask, VolumeImage, decompose, extract_cohort, featurestore, get_bank, pipeline, synth_cohort,
)
from radrisk.errors import ConfigError, DataError, NumericalError
from radrisk.features import (
    GLCM_FEATURES,
    TEXTURE_FAMILIES,
    ExtractionConfig,
    discretize,
    extract_all,
    feature_names,
    firstorder_features,
    shape_features,
    texture_features,
)
from radrisk.features.texture import texture_rows
from radrisk.featurestore import FeatureStore, read_features_csv, write_features_csv
from radrisk.synth import EffectConfig, SynthConfig
from oracles import csv_features_text


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
    cfg = ExtractionConfig(n_bins=16, wavelet="none")
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
    original = feature_names(ExtractionConfig(n_bins=16, wavelet="none"))
    assert names[: len(original)] == original
    for name in (
        "original-shape-Sphericity",
        "original-shape-Elongation",
        "original-glszm-SizeZoneNonUniformityNormalized",
    ):
        assert name in original


def test_gldm_table_names():
    names = feature_names(ExtractionConfig(n_bins=16, wavelet="none"))
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
        rows = texture_rows(droi, family)
        if family == "glcm":
            rows[:, GLCM_FEATURES.index("Contrast")] = np.nan
        return rows

    monkeypatch.setattr(extract_module, "texture_rows", nan_glcm)
    with pytest.raises(NumericalError, match=r"'original-glcm-Contrast', 'wavelet-LLL-glcm-Contrast'.*\.\.\."):
        extract_all(img, mask, ExtractionConfig(n_bins=16, wavelet="haar"))


def test_misaligned_mask_rejected(pair):
    img, _ = pair
    with pytest.raises(DataError, match="match"):
        extract_all(img, RoiMask(np.ones((3, 3, 3), bool)), ExtractionConfig())


@pytest.mark.parametrize("n_bins", [1, 0, -3])
def test_bin_count_below_two_rejected_on_a_one_voxel_roi(n_bins):
    # a one-voxel ROI has no neighbor pair, so n_bins alone sizes the chunk
    mask = np.zeros((4, 4, 4), bool)
    mask[2, 2, 2] = True
    img = VolumeImage(np.random.default_rng(0).normal(size=(4, 4, 4)))
    with pytest.raises(ConfigError, match="n_bins must be >= 2"):
        extract_all(img, RoiMask(mask), ExtractionConfig(n_bins=n_bins, wavelet="haar"))


def _sidecar(path):
    return path.with_name(path.name + ".npy")


# "text" deletes the binary sidecar, so that the CSV text parse keeps its own round-trip coverage
READ_PATHS = pytest.mark.parametrize("read_path", ["sidecar", "text"])


def _written(tmp_path, store, read_path):
    path = write_features_csv(tmp_path / "f.csv", store, "config: {}")
    assert _sidecar(path).is_file()
    if read_path == "text":
        _sidecar(path).unlink()
    return path


@READ_PATHS
def test_feature_csv_roundtrip(tmp_path, pair, read_path):
    img, mask = pair
    cfg = ExtractionConfig(n_bins=8, wavelet="none")
    keys = [("L1", "followup", "2010-01-01"), ("L1", "planning_mr", "2009-10-01"),
            ("L1", "planning_ct", "2009-10-01")]
    rows = [extract_all(img, mask, cfg) for _ in keys]
    store = FeatureStore(feature_names(cfg), keys, np.array(rows))
    path = _written(tmp_path, store, read_path)
    back = read_features_csv(path)
    assert back.keys == keys and back.names == feature_names(cfg)
    for row, back_row in zip(rows, back.values.tolist()):
        assert back_row == row.tolist()  # repr round-trip is exact


def _store(keys, names=("original-shape-Volume", "wavelet-LLL-firstorder-Mean")):
    values = np.arange(len(keys) * len(names), dtype=np.float64).reshape(len(keys), len(names)) / 3.0
    return FeatureStore(list(names), keys, values)


@READ_PATHS
def test_feature_csv_quotes_keys(tmp_path, read_path):
    keys = [("P,0001-L1", "followup", "2010-01-01"), ('P"2-L1', "planning_mr", "2009-10-01"),
            ("#3,\n", "planning_ct", "2009-10-01"), ("P4-L1", "followup", "2010-02-01")]
    store = _store(keys)
    path = _written(tmp_path, store, read_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[-1].startswith("P4-L1,followup,2010-02-01,")  # plain ids keep their bytes
    back = read_features_csv(path)
    assert back.keys == keys and back.names == store.names
    assert np.array_equal(back.values.view(np.int64), store.values.view(np.int64))


@pytest.mark.parametrize("keys", [[], [("P,0001-L1", "followup", "2010-01-01"), ('P"2-L1', "planning_mr", "x"),
                                        ("#3,\n", "planning_ct", "2009-10-01"), ("", "followup", "2010-02-01")]],
                         ids=["no-rows", "keys-to-quote"])
@pytest.mark.parametrize("width", [0, 1, 7])
def test_feature_csv_text_is_what_csv_writer_writes(tmp_path, keys, width):
    # the floats are joined as their repr after the csv-quoted keys: the bytes of csv.writer
    names = [f"original-firstorder-F{j}" for j in range(width)]
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1]
    values = np.resize(np.array(special), (len(keys), width))
    store = FeatureStore(names, keys, values)
    path = write_features_csv(tmp_path / "f.csv", store, 'config: {"a": "b,c"}')
    assert path.read_bytes().decode() == csv_features_text(store, 'config: {"a": "b,c"}')


def _same_store(a, b):
    return a.names == b.names and a.keys == b.keys and a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("keys", [[], [("L1", "followup", "2010-01-01"), ("L1", "planning_ct", "2009-10-01")]],
                         ids=["header-only", "two-rows"])
def test_feature_csv_sidecar_read_equals_the_text_parse(tmp_path, monkeypatch, keys):
    store = _store([("L1", "followup", "2010-01-01"), ("L1", "planning_ct", "2009-10-01")])
    with np.errstate(invalid="ignore"):
        store.values[0] = [-0.0, 0.0 * np.inf]  # a NaN with its sign bit set, written as "nan"
    store.values[1] = [np.inf, 5e-324]
    store = FeatureStore(store.names, keys, store.values[: len(keys)])  # header-only: a store without rows
    settings = {"n_bins": 8, "wavelet": "none", "whitestripe": "mr", "zscore": False}
    path = write_features_csv(tmp_path / "f.csv", store, "config: " + json.dumps({"manifest": "m.json", **settings}))
    listing = sorted(tmp_path.iterdir())
    with monkeypatch.context() as patch:
        patch.setattr(featurestore, "_read_store", None)  # the sidecar serves the read alone
        from_sidecar = read_features_csv(path)
    assert sorted(tmp_path.iterdir()) == listing  # a read writes nothing
    _sidecar(path).unlink()
    from_text = read_features_csv(path)
    assert sorted(tmp_path.iterdir()) == [path]  # not even the sidecar it could have used
    assert _same_store(from_sidecar, from_text)
    assert from_sidecar.settings == from_text.settings == ExtractionConfig(**settings)
    assert from_text.keys == keys and len(from_text.names) == (2 if keys else 0)


def test_feature_csv_text_parse_wins_over_a_sidecar_that_does_not_match(tmp_path):
    keys = [("L1", "followup", "2010-01-01"), ("L2", "followup", "2010-01-01")]
    path = write_features_csv(tmp_path / "f.csv", _store(keys), "config: {}")
    sidecar = _sidecar(path).read_bytes()

    # the CSV edited after writing: the edited value is read
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("\nL2,followup,2010-01-01,0.6666666666666666,", "\nL2,followup,2010-01-01,12345.0,"),
                    encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    assert read_features_csv(path).values[1, 0] == 12345.0
    path.write_text(text, encoding="utf-8")
    assert read_features_csv(path).values[1, 0] == 2 / 3

    # a truncated or garbage sidecar is ignored
    huge = io.BytesIO()  # a record that claims 80 TB, which numpy refuses to allocate
    np.lib.format.write_array_header_1_0(huge, {"descr": "<i8", "fortran_order": False, "shape": (10**13,)})
    for junk in (sidecar[:-8], sidecar[: len(sidecar) // 2], b"", b"PK\x03\x04 not an archive", sidecar + b"\0",
                 huge.getvalue() + bytes(16)):
        _sidecar(path).write_bytes(junk)
        assert _same_store(read_features_csv(path), _store(keys))
        assert _sidecar(path).read_bytes() == junk  # and left as it is

    # a sidecar next to a hand-written table: the table is read, and its errors are reported
    _sidecar(path).write_bytes(sidecar)
    path.write_text("lesion_id,role,date,original-shape-Volume\nL9,followup,2011-01-01,7.0\n", encoding="utf-8")
    back = read_features_csv(path)
    assert back.keys == [("L9", "followup", "2011-01-01")] and back.values.tolist() == [[7.0]]
    path.write_text("lesion_id,role,date,original-shape-Volume\nL9,followup,2011-01-01,x\n", encoding="utf-8")
    with pytest.raises(DataError, match="bad value"):
        read_features_csv(path)


def _planted(path, keys):
    """A table of ``keys`` and a sidecar that matches it, both written by hand: the writer writes only
    a valid store."""
    path.write_text("".join(["# config: {}\nlesion_id,role,date,original-shape-Volume\n",
                             *(f"{','.join(key)},1.5\n" for key in keys)]), encoding="utf-8")
    with _sidecar(path).open("wb") as fh:
        np.save(fh, featurestore._digest(path))
        np.save(fh, np.array(["original-shape-Volume"]))
        np.save(fh, np.array(keys, dtype=str))
        np.save(fh, np.full((len(keys), 1), 1.5))
    return path


def test_feature_csv_sidecar_store_that_fails_validation_falls_back(tmp_path, monkeypatch):
    keys = [("L1", "followup", "2010-01-01"), ("L2", "followup", "2010-01-01")]
    with monkeypatch.context() as patch:
        patch.setattr(featurestore, "_read_store", None)  # a planted sidecar of a valid store is read
        back = read_features_csv(_planted(tmp_path / "f.csv", keys))
    assert _same_store(back, FeatureStore(["original-shape-Volume"], keys, np.full((2, 1), 1.5)))
    path = _planted(tmp_path / "f.csv", [keys[0], keys[0]])
    with pytest.raises(DataError, match="duplicate row"):  # the text parse names the fault
        read_features_csv(path)


@pytest.mark.parametrize("fault", ["keys-of-2-columns", "float32-values", "values-wider-than-names"])
def test_feature_csv_sidecar_records_of_the_wrong_type_or_shape_are_ignored(tmp_path, fault):
    keys = [("L1", "followup", "2010-01-01"), ("L2", "followup", "2010-01-01")]
    path = _planted(tmp_path / "f.csv", keys)
    names, key_array, values = np.array(["original-shape-Volume"]), np.array(keys, dtype=str), np.full((2, 1), 2.5)
    if fault == "keys-of-2-columns":
        key_array = key_array[:, :2]
    elif fault == "float32-values":
        values = values.astype(np.float32)
    else:
        values = np.full((2, 2), 2.5)
    with _sidecar(path).open("wb") as fh:
        for record in (featurestore._digest(path), names, key_array, values):
            np.save(fh, record)
    back = read_features_csv(path)  # the text parse: its values are 1.5, the sidecar's 2.5
    assert _same_store(back, FeatureStore(["original-shape-Volume"], keys, np.full((2, 1), 1.5)))


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
    path.write_text("\n".join(["# config: {}", "lesion_id,role,date," + header, *rows]) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=match):
        read_features_csv(path)


def test_extract_cohort_reuses_rows_in_job_order(monkeypatch):
    records = synth_cohort(seed=3, n_lesions=3, effect=EffectConfig(), config=SynthConfig())
    config = ExtractionConfig(n_bins=8, wavelet="none")
    jobs = list(pipeline.image_jobs(records))
    fresh = extract_cohort(records, config)
    assert fresh.keys == [job[:3] for job in jobs]

    # an earlier table: every other image in reverse order, marked by its sign, and an image since removed
    picked = fresh.keys[::-2]
    marked = -fresh.values[fresh.rows(picked)]
    gone = ("L-gone", "followup", "2010-01-01")
    reuse = FeatureStore(fresh.names, [*picked, gone], np.vstack([marked, np.ones(len(fresh.names))]))
    reused_voxels = [source.load()[0].voxels for *key, source in jobs if tuple(key) in picked]
    normalize = pipeline.normalize_volume

    def refuse_reused(img, role, cfg):
        assert not any(np.array_equal(img.voxels, voxels) for voxels in reused_voxels), "a reused image was loaded"
        return normalize(img, role, cfg)

    monkeypatch.setattr(pipeline, "normalize_volume", refuse_reused)
    expected = fresh.values.copy()
    expected[fresh.rows(picked)] = marked
    for threads in (1, 3):
        store = extract_cohort(records, config, threads=threads, reuse=reuse)
        assert store.keys == fresh.keys  # job order, without the removed image
        assert store.values.tobytes() == expected.tobytes()
    with pytest.raises(DataError, match="inconsistent feature columns"):
        extract_cohort(records, config, reuse=FeatureStore(fresh.names[::-1], picked, marked[:, ::-1]))
    monkeypatch.setattr(pipeline, "normalize_volume", normalize)
    # a header-only table holds no rows and no names: nothing is reused
    header_only = extract_cohort(records, config, reuse=FeatureStore([], [], np.empty((0, 0))))
    assert header_only.keys == fresh.keys and header_only.values.tobytes() == fresh.values.tobytes()


def full_volume_reference(img, mask, cfg):
    """extract_all's features by name, with every subband computed on the whole volume."""
    out = {f"original-shape-{name}": value for name, value in shape_features(mask, img.spacing).items()}
    images = {"original": img}
    if cfg.wavelet != "none":
        subbands = decompose(img, get_bank(cfg.wavelet))
        images.update({f"wavelet-{label}": subbands[label] for label in SUBBAND_LABELS})
    for prefix, image in images.items():
        out.update({f"{prefix}-firstorder-{k}": v for k, v in firstorder_features(image, mask).items()})
        droi = discretize(image, mask, cfg.n_bins)
        for family in TEXTURE_FAMILIES:
            out.update({f"{prefix}-{family}-{k}": v for k, v in texture_features(droi, family).items()})
    return out


@pytest.mark.parametrize("wavelet", ["haar", "coif1", "none"])
def test_feature_names_follow_the_reference_order(pair, wavelet):
    img, mask = pair
    cfg = ExtractionConfig(n_bins=16, wavelet=wavelet)
    ref = full_volume_reference(img, mask, cfg)
    assert feature_names(cfg) == list(ref)
    assert np.array_equal(extract_all(img, mask, cfg).view(np.int64), np.array(list(ref.values())).view(np.int64))


@pytest.mark.parametrize("wavelet", ["haar", "coif1"])
def test_roi_box_matches_full_volume_exactly(wavelet, monkeypatch):
    seen = []

    def recording_subbands(voxels, bank):
        seen.append(voxels.shape)
        return subbands(voxels, bank)

    subbands = extract_module.subbands
    monkeypatch.setattr(extract_module, "subbands", recording_subbands)
    rng = np.random.default_rng(81)
    dims = (14, 13, 12)
    img = VolumeImage(rng.normal(60, 10, size=dims), (0.8, 1.1, 2.0))
    margin = get_bank(wavelet).low.size - 1
    interior = (slice(6, 10), slice(6, 10), slice(7, 11))
    # a ROI on the low face of each axis, where the box keeps that whole axis, on
    # the high face, where the box ends at the grid's edge, and in two corners
    faces = [tuple(slice(0, 3) if a == axis else slice(5, 9) for a in range(3)) for axis in range(3)]
    high_faces = [tuple(slice(n - 3, n) if a == axis else slice(5, 9) for a, n in enumerate(dims))
                  for axis in range(3)]
    corners = [(slice(0, 3),) * 3, tuple(slice(n - 3, n) for n in dims)]
    for box in [interior] + faces + high_faces + corners:
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


def test_chunked_stack_matches_per_image_and_one_chunk(monkeypatch):
    dims = (16, 16, 16)
    ball = ((np.indices(dims) - 7.5) ** 2).sum(axis=0) <= 6.2**2
    img = VolumeImage(np.random.default_rng(82).normal(60, 10, size=dims).cumsum(axis=0))
    mask = RoiMask(ball)
    cfg = ExtractionConfig(n_bins=32, wavelet="haar")
    chunks = []

    def recording_rows(values, mask, n_bins):
        chunks.append(len(values))
        return intensity_rows(values, mask, n_bins)

    intensity_rows = extract_module._intensity_rows
    monkeypatch.setattr(extract_module, "_intensity_rows", recording_rows)
    # a budget of two of this ROI's images per chunk: its largest array is GLCM's 13 * 32^2 cells
    monkeypatch.setattr(extract_module, "_CHUNK_CELLS", 1 << 15)
    row = extract_all(img, mask, cfg)
    assert len(chunks) >= 2 and sum(chunks) == 9
    ref = np.array(list(full_volume_reference(img, mask, cfg).values()))
    assert np.array_equal(row.view(np.int64), ref.view(np.int64))
    # the same nine images in one chunk give the same bits
    chunks.clear()
    monkeypatch.setattr(extract_module, "_CHUNK_CELLS", 1 << 30)
    assert np.array_equal(extract_all(img, mask, cfg).view(np.int64), row.view(np.int64))
    assert chunks == [9]
