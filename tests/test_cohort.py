import dataclasses
import datetime
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from radrisk import (
    ClinicalData,
    DataError,
    Followup,
    ImageSource,
    MetastasisRecord,
    assemble,
    build_dataset,
    clinical_features,
    delta_features,
    feature_set,
    label_samples,
    load_manifest,
    synth_cohort,
)
from radrisk.cohort import (
    BLOCK_TITLES,
    CLINICAL_FEATURE_NAMES,
    FEATURE_SETS,
    FeatureSetSpec,
    strip_image_tag,
)
from radrisk.cli import main
from radrisk.featurestore import FeatureStore, read_features_csv, write_features_csv
from radrisk.pipeline import image_jobs
from radrisk.synth import EffectConfig, SynthConfig
from helpers import field_paths, with_field_of_another_json_type


def d(iso):
    return datetime.date.fromisoformat(iso)


CLINICAL = ClinicalData(rpa_class=2, eqd=30.0, n_metastases=2, age=60.0, sex=1,
                        karnofsky=80, primary_site="lung", extracranial=0)


def record(followup_dates, event=None, censor="2011-12-31", planning="2010-01-01"):
    return MetastasisRecord(
        patient_id="P1",
        lesion_id="P1-L1",
        clinical=CLINICAL,
        planning_date=d(planning),
        planning_mr=ImageSource(image_path="x", mask_path="y"),
        followups=tuple(Followup(d(fd), ImageSource(image_path="x", mask_path="y")) for fd in followup_dates),
        event_date=d(event) if event else None,
        censor_date=d(censor),
    )


# ---------------------------------------------------------------------------
# labeling


def test_event_inside_horizon_is_hrm():
    rec = record(["2010-04-01"], event="2010-05-21")  # +50 days
    res = label_samples([rec], 100)
    assert len(res.samples) == 1
    s = res.samples[0]
    assert s.label == "HRM" and not s.censored
    assert s.days_to_event_or_censor == 50


def test_event_beyond_horizon_is_lrm():
    rec = record(["2010-04-01"], event="2010-08-29", censor="2010-10-18")  # +150, censor +200
    res = label_samples([rec], 100)
    assert res.samples[0].label == "LRM"
    assert not res.samples[0].censored
    assert res.samples[0].days_to_event_or_censor == 150


def test_censored_before_horizon_excluded_but_kept_for_km():
    rec = record(["2010-04-01"], censor="2010-05-31")  # +60 days, no event
    res = label_samples([rec], 100)
    assert res.samples == []
    assert len(res.km_censored) == 1
    assert res.km_censored[0].days == 60
    assert res.km_censored[0].censored


def test_followup_on_or_after_event_dropped_with_warning(caplog):
    rec = record(["2010-04-01", "2010-07-01"], event="2010-06-01")
    with caplog.at_level("WARNING"):
        res = label_samples([rec], 100)
    assert len(res.samples) == 1  # only the April image survives
    assert len(res.dropped) == 1
    assert "after the progression event" in res.dropped[0][2]
    assert any("dropped" in m for m in caplog.messages)


def test_label_partition_every_followup_accounted():
    rng = np.random.default_rng(70)
    records = synth_cohort(seed=3, n_lesions=30, config=SynthConfig(exclude_fraction=0.3, followups=(1, 3)))
    res = label_samples(records, 100)
    n_followups = sum(len(r.followups) for r in records)
    assert len(res.samples) + len(res.km_censored) + len(res.dropped) == n_followups


def test_horizon_monotonicity():
    records = synth_cohort(seed=4, n_lesions=25, config=SynthConfig(followups=(1, 3)))
    hrm_small = {(s.lesion_id, s.imaging_date) for s in label_samples(records, 80).samples if s.label == "HRM"}
    hrm_large = {(s.lesion_id, s.imaging_date) for s in label_samples(records, 160).samples if s.label == "HRM"}
    assert hrm_small <= hrm_large


def test_labeling_horizon_validation():
    with pytest.raises(DataError):
        label_samples([], 0)


def test_record_invariants():
    with pytest.raises(DataError, match="strictly increasing"):
        record(["2010-04-01", "2010-04-01"])
    with pytest.raises(DataError, match="precedes the first"):
        record(["2010-04-01"], event="2010-02-01")
    with pytest.raises(DataError, match="censor_date"):
        record(["2010-04-01"], censor="2010-03-01")


# ---------------------------------------------------------------------------
# delta features


def test_delta_hand_value():
    fu = {"follow-up-mr-original-shape-Volume": 10.0}
    plan = {"Plan-mr-original-shape-Volume": 4.0}
    out = delta_features(fu, plan, 3)
    assert out == {"Delta-mr-original-shape-Volume": 2.0}


def test_delta_zero_and_homogeneity():
    fu = {"follow-up-mr-original-firstorder-Mean": 5.0, "follow-up-mr-wavelet-LHL-firstorder-Range": 8.0}
    plan = {"Plan-mr-original-firstorder-Mean": 5.0, "Plan-mr-wavelet-LHL-firstorder-Range": 2.0}
    d1 = delta_features(fu, plan, 10)
    d2 = delta_features(fu, plan, 20)
    assert d1["Delta-mr-original-firstorder-Mean"] == 0.0
    for name in d1:
        assert d2[name] == pytest.approx(d1[name] / 2.0, abs=1e-15)


def test_delta_errors():
    fu = {"follow-up-mr-original-shape-Volume": 1.0}
    plan = {"Plan-mr-original-shape-Volume": 1.0}
    with pytest.raises(DataError, match="days"):
        delta_features(fu, plan, 0)
    with pytest.raises(DataError, match="counterpart"):
        delta_features({"follow-up-mr-original-shape-Sphericity": 1.0}, plan, 5)
    with pytest.raises(DataError, match="grammar"):
        strip_image_tag("no-filter-marker-here")


# ---------------------------------------------------------------------------
# feature sets and assembly


TOY_NAMES = ["original-shape-Volume", "wavelet-LLL-firstorder-Mean"]
CLINICAL_COLS = list(range(len(CLINICAL_FEATURE_NAMES)))


def _toy_dataset(set_id, ct_row=True, scale=1.0, followup="2010-04-11"):
    """One lesion with planning CT and one follow-up, assembled from a two-feature store."""
    rec = dataclasses.replace(record([followup], event="2010-05-01"), planning_ct=ImageSource("x", "y"))
    keys = [("P1-L1", "followup", followup), ("P1-L1", "planning_mr", "2010-01-01"),
            ("P1-L1", "planning_ct", "2010-01-01")]
    values = scale * np.array([[3.0, 4.0], [2.0, 1.0], [9.0, 5.0]])
    n = 3 if ct_row else 2
    return build_dataset([rec], FeatureStore(TOY_NAMES, keys[:n], values[:n]), feature_set(set_id))


def test_clinical_block_is_exactly_12_columns():
    clin = clinical_features(CLINICAL, gap_days=90)
    assert tuple(clin) == CLINICAL_FEATURE_NAMES
    assert len(clin) == 12
    assert assemble(feature_set(1), TOY_NAMES) == [("clinical", "clinical", CLINICAL_COLS)]
    assert _toy_dataset(1).feature_names == list(CLINICAL_FEATURE_NAMES)


def test_set3_is_clinical_plus_delta_only():
    assert assemble(feature_set(3), TOY_NAMES) == [("clinical", "clinical", CLINICAL_COLS), ("delta", "delta", [0])]
    ds = _toy_dataset(3)
    assert all(n.startswith("clinical-") or n.startswith("Delta-mr-original-") for n in ds.feature_names)
    assert len(ds.feature_names) == 12 + 1  # one original delta feature in the toy blocks
    assert ds.X[0, 12] == (3.0 - 2.0) / 100  # per day over the 100-day gap


def test_set7_extends_set6_with_wavelet_block():
    set6 = assemble(feature_set(6), TOY_NAMES)
    set7 = assemble(feature_set(7), TOY_NAMES)
    assert set7[: len(set6)] == set6
    assert set7[len(set6):] == [("wavelet", block, [1])
                                for block in ("followup_mr", "delta", "planning_mr", "planning_ct")]
    ds6, ds7 = _toy_dataset(6), _toy_dataset(7)
    assert ds7.feature_names[: len(ds6.feature_names)] == ds6.feature_names
    wavelet_tail = ds7.feature_names[len(ds6.feature_names):]
    assert wavelet_tail and all("-wavelet-" in n for n in wavelet_tail)
    assert np.array_equal(ds7.X[:, : ds6.X.shape[1]], ds6.X)
    assert ds7.X[0, -4:].tolist() == [4.0, (4.0 - 1.0) / 100, 1.0, 5.0]


def test_missing_required_block_errors():
    match = r"^\[assemble P1-L1/2010-04-11\] feature set 5 requires the planning_ct block"
    with pytest.raises(DataError, match=match):
        _toy_dataset(5, ct_row=False)
    assert _toy_dataset(4, ct_row=False).feature_names[12:] == ["Plan-mr-original-shape-Volume"]


def test_feature_set_table_is_locked():
    assert feature_set(1).blocks == ("clinical",)
    assert "planning_ct" in feature_set(6).blocks and "wavelet" not in feature_set(6).blocks
    assert "wavelet" in feature_set(7).blocks
    with pytest.raises(DataError):
        feature_set(8)
    with pytest.raises(DataError, match="1..7"):
        FeatureSetSpec(0)


def test_column_block_follows_the_table():
    for blocks in FEATURE_SETS.values():
        assert list(blocks) == [b for b in BLOCK_TITLES if b in blocks]
    for set_id in FEATURE_SETS:
        ds = _toy_dataset(set_id)
        names, blocks = ds.feature_names, ds.column_blocks
        assert len(blocks) == len(names)
        assert blocks == sorted(blocks, key=list(BLOCK_TITLES).index)  # contiguous, in Table 1 order
        assert set(blocks) == set(feature_set(set_id).blocks)
        assert all(("-wavelet-" in name) == (block == "wavelet") for name, block in zip(names, blocks))


def test_assembly_columns_depend_only_on_spec():
    ds1 = _toy_dataset(6)
    ds2 = _toy_dataset(6, scale=2.0, followup="2010-02-01")
    assert not np.array_equal(ds1.X, ds2.X)
    assert ds1.feature_names == ds2.feature_names


# ---------------------------------------------------------------------------
# synthetic cohorts


def test_synth_same_seed_identical():
    a = synth_cohort(seed=9, n_lesions=6)
    b = synth_cohort(seed=9, n_lesions=6)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.lesion_id == rb.lesion_id
        assert ra.event_date == rb.event_date
        assert ra.clinical == rb.clinical
        va, _ = ra.planning_mr.load()
        vb, _ = rb.planning_mr.load()
        assert np.array_equal(va.voxels, vb.voxels)
    diff = synth_cohort(seed=10, n_lesions=6)
    va = a[0].planning_mr.load()[0].voxels
    vd = diff[0].planning_mr.load()[0].voxels
    assert not np.array_equal(va, vd)


def test_synth_prevalence_and_structure():
    records = synth_cohort(seed=11, n_lesions=60, config=SynthConfig(hrm_fraction=0.10))
    res = label_samples(records, 100)
    labels = [s.label for s in res.samples]
    hrm_frac = labels.count("HRM") / len(labels)
    assert 0.02 < hrm_frac < 0.12
    assert all(r.planning_ct is not None for r in records)
    records_missing = synth_cohort(seed=11, n_lesions=20, config=SynthConfig(ct_missing_fraction=1.0))
    assert all(r.planning_ct is None for r in records_missing)


def test_synth_grown_lesion_is_larger():
    records = synth_cohort(seed=12, n_lesions=30,
                           effect=EffectConfig(growth=0.6, texture=2.0),
                           config=SynthConfig(hrm_fraction=0.2))
    res = label_samples(records, 100)
    by_lesion = {r.lesion_id: r for r in records}
    hrm_sizes, lrm_sizes = [], []
    for s in res.samples:
        rec = by_lesion[s.lesion_id]
        mask = rec.followups[s.followup_index].source.load()[1]
        (hrm_sizes if s.label == "HRM" else lrm_sizes).append(mask.count)
    assert hrm_sizes and lrm_sizes
    assert np.mean(hrm_sizes) > 1.5 * np.mean(lrm_sizes)


# ---------------------------------------------------------------------------
# manifest round trip


def test_manifest_roundtrip(tmp_path):
    from radrisk.cli import main

    assert main(["synth", "--seed", "5", "--lesions", "4", "--out", str(tmp_path)]) == 0
    records = load_manifest(tmp_path / "manifest.json")
    assert len(records) == 4
    original = synth_cohort(seed=5, n_lesions=4)
    for loaded, source in zip(records, original):
        assert loaded.lesion_id == source.lesion_id
        assert loaded.event_date == source.event_date
        assert loaded.clinical == source.clinical
        img_l, mask_l = loaded.planning_mr.load(tmp_path)
        img_s, mask_s = source.planning_mr.load()
        assert np.allclose(img_l.voxels, img_s.voxels, atol=1e-5)  # float32 file payload
        assert np.array_equal(mask_l.voxels, mask_s.voxels)


def test_manifest_validation_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="malformed"):
        load_manifest(p)
    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps({"nope": []}), encoding="utf-8")
    with pytest.raises(DataError, match="patients"):
        load_manifest(p2)
    with pytest.raises(DataError, match="not found"):
        load_manifest(tmp_path / "missing.json")

    def lesion():
        return {
            "lesion_id": "P1-L1",
            "planning_date": "2010-01-01",
            "planning_mr": {"image": "mr.json", "mask": "mr_mask.json"},
            "followups": [{"date": "2010-04-01", "image": "fu.json", "mask": "fu_mask.json"}],
            "censor_date": "2011-12-31",
        }

    def write(les):
        path = tmp_path / "fields.json"
        patient = {"patient_id": "P1", "clinical": dataclasses.asdict(CLINICAL), "lesions": [les]}
        path.write_text(json.dumps({"patients": [patient]}), encoding="utf-8")
        return path

    assert len(load_manifest(write(lesion()))) == 1
    for field in ("planning_date", "planning_mr", "censor_date"):
        absent = lesion()
        del absent[field]
        for les in (absent, {**lesion(), field: None}):
            with pytest.raises(DataError, match=f"P1/P1-L1: missing field '{field}'"):
                load_manifest(write(les))
    for les in (lesion(), {**lesion(), "event_date": None}):
        assert load_manifest(write(les))[0].event_date is None
    for event in (0, False, "", []):
        with pytest.raises(DataError, match="P1/P1-L1 event_date: bad ISO date"):
            load_manifest(write({**lesion(), "event_date": event}))
    # the ISO basic and week forms, which date.fromisoformat reads, and non-ASCII digits: only YYYY-MM-DD loads
    other_forms = ("20100313", "2010-W24-2", "2010W242", "\u0662\u0660\u0661\u0660-03-13")
    for field in ("planning_date", "censor_date"):
        for value in ("x", 5, "2010-13-01", *other_forms):
            with pytest.raises(DataError, match=f"P1/P1-L1 {field}: bad ISO date"):
                load_manifest(write({**lesion(), field: value}))
    les = lesion()
    del les["followups"][0]["date"]
    with pytest.raises(DataError, match="P1/P1-L1 follow-up 0: missing field 'date'"):
        load_manifest(write(les))
    for value in ("x", 5, "", *other_forms):
        les = lesion()
        les["followups"].append({**les["followups"][0], "date": value})
        with pytest.raises(DataError, match="P1/P1-L1 follow-up 1 date: bad ISO date"):
            load_manifest(write(les))

    for les, message in (
        ("P1-L1", "P1: 'lesions' entry 0 must be an object"),
        ({**lesion(), "followups": {"date": "2010-04-01"}}, "P1/P1-L1: 'followups' must be an array"),
        ({**lesion(), "followups": ["fu.json"]}, "P1/P1-L1: 'followups' entry 0 must be an object"),
    ):
        with pytest.raises(DataError, match=message):
            load_manifest(write(les))
    patient = {"patient_id": "P1", "clinical": dataclasses.asdict(CLINICAL), "lesions": "P1-L1"}
    for patients, message in (
        ({"P1": patient}, "'patients' must be an array"),
        (["P1"], "'patients' entry 0 must be an object"),
        ([patient], "P1: 'lesions' must be an array"),
    ):
        p3 = tmp_path / "types.json"
        p3.write_text(json.dumps({"patients": patients}), encoding="utf-8")
        with pytest.raises(DataError, match=message):
            load_manifest(p3)

    for les, message in (
        ({**lesion(), "planning_mr": {"image": 5, "mask": "m.json"}}, "P1/P1-L1 planning_mr: 'image' path must be a string"),
        ({**lesion(), "planning_ct": {"image": "ct.json", "mask": None}}, "P1/P1-L1 planning_ct: 'mask' path must be a string"),
        (
            {**lesion(), "followups": [{"date": "2010-04-01", "image": ["fu.json"], "mask": "m.json"}]},
            "P1/P1-L1 follow-up 0: 'image' path must be a string",
        ),
        ({**lesion(), "lesion_id": {"id": "P1-L1"}}, "P1: lesion 0: 'lesion_id' must be a non-empty string"),
        ({**lesion(), "lesion_id": 7}, "P1: lesion 0: 'lesion_id' must be a non-empty string"),
        ({**lesion(), "lesion_id": ""}, "P1: lesion 0: 'lesion_id' must be a non-empty string"),
    ):
        with pytest.raises(DataError, match=message):
            load_manifest(write(les))
    clinical = dataclasses.asdict(CLINICAL)
    for changes, message in (
        ({"patient_id": 1}, "patient 0: 'patient_id' must be a non-empty string"),
        ({"patient_id": ["P1"]}, "patient 0: 'patient_id' must be a non-empty string"),
        ({"patient_id": ""}, "patient 0: 'patient_id' must be a non-empty string"),
        ({"clinical": ["lung"]}, "P1: 'clinical' must be an object"),
        ({"clinical": {**clinical, "age": "sixty"}}, "P1: clinical field 'age' must be a number"),
        ({"clinical": {**clinical, "sex": True}}, "P1: clinical field 'sex' must be a number"),
        ({"clinical": {**clinical, "eqd": None}}, "P1: clinical field 'eqd' must be a number"),
        ({"clinical": {**clinical, "karnofsky": float("nan")}}, "P1: clinical field 'karnofsky' must be a number"),
        ({"clinical": {**clinical, "extracranial": 10**400}}, "P1: clinical field 'extracranial' must be a number"),
        ({"clinical": {**clinical, "rpa_class": [2]}}, "P1: clinical field 'rpa_class' must be a number"),
        ({"clinical": {**clinical, "primary_site": 3}}, "P1: clinical field 'primary_site' must be a string"),
    ):
        p4 = tmp_path / "values.json"
        patient = {"patient_id": "P1", "clinical": clinical, "lesions": [lesion()], **changes}
        p4.write_text(json.dumps({"patients": [patient]}), encoding="utf-8")
        with pytest.raises(DataError, match=message):
            load_manifest(p4)


_VALID_MANIFEST = {
    "format_version": 1,
    "patients": [
        {
            "patient_id": "P1",
            "clinical": dataclasses.asdict(CLINICAL),
            "lesions": [
                {
                    "lesion_id": "P1-L1",
                    "planning_date": "2010-01-01",
                    "planning_mr": {"image": "mr.json", "mask": "mr_mask.json"},
                    "planning_ct": {"image": "ct.json", "mask": "ct_mask.json"},
                    "followups": [
                        {"date": "2010-04-01", "image": "fu1.json", "mask": "fu1_mask.json"},
                        {"date": "2010-07-01", "image": "fu2.json", "mask": "fu2_mask.json"},
                    ],
                    "event_date": "2010-09-01",
                    "censor_date": "2011-12-31",
                }
            ],
        }
    ],
}

@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(list(field_paths(_VALID_MANIFEST))), data=st.data())
def test_manifest_field_of_another_json_type(tmp_path, path, data):
    p = tmp_path / "swapped.json"
    p.write_text(json.dumps(with_field_of_another_json_type(_VALID_MANIFEST, path, data)), encoding="utf-8")
    try:
        records = load_manifest(p)
    except DataError:
        return
    for rec in records:
        assert isinstance(rec.patient_id, str) and isinstance(rec.lesion_id, str)
        for src in (rec.planning_mr, rec.planning_ct, *(fu.source for fu in rec.followups)):
            if src is not None:
                assert isinstance(src.image_path, str) and isinstance(src.mask_path, str)
        clinical_features(rec.clinical, 1)


def test_manifest_rejects_a_lesion_id_repeated_across_patients(tmp_path):
    # the feature table keys images by lesion_id: a repeat would pair one patient's
    # follow-ups with another's planning images and clinical block
    def patient(pid, lids):
        lesions = [{
            "lesion_id": lid,
            "planning_date": "2010-01-01",
            "planning_mr": {"image": "mr.json", "mask": "mr_mask.json"},
            "followups": [],
            "censor_date": "2011-12-31",
        } for lid in lids]
        return {"patient_id": pid, "clinical": dataclasses.asdict(CLINICAL), "lesions": lesions}

    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"patients": [patient("P0", ["L1"]), patient("P1", ["L2"])]}), encoding="utf-8")
    assert [r.lesion_id for r in load_manifest(path)] == ["L1", "L2"]
    for patients, owners in (
        ([patient("P0", ["L1"]), patient("P1", ["L2", "L1"])], "'P0' and 'P1'"),
        ([patient("P0", ["L1", "L1"])], "'P0' and 'P0'"),
    ):
        path.write_text(json.dumps({"patients": patients}), encoding="utf-8")
        with pytest.raises(DataError, match=f"lesion_id 'L1' appears twice, under patients {owners}"):
            load_manifest(path)


# ids made of what csv quoting, the text parse and the str sidecar handle specially, and of any text at all
_IDS = st.one_of(st.text(st.sampled_from(' ,"\'#-aé\u00a0\u2028\n\r\t\x00\x85'), min_size=1, max_size=5),
                 st.text(min_size=1, max_size=5))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pid=_IDS, lid=_IDS)
def test_an_id_the_manifest_accepts_survives_the_feature_table(tmp_path_factory, pid, lid):
    """A printable id keeps its bytes through the table's text and its sidecar; any other id exits 3 before
    ``--out`` is made."""
    root = tmp_path_factory.mktemp("ids")
    manifest = root / "manifest.json"
    doc = json.loads(json.dumps(_VALID_MANIFEST))
    doc["patients"][0]["patient_id"] = pid
    doc["patients"][0]["lesions"][0]["lesion_id"] = lid
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    if not (pid.isprintable() and lid.isprintable()):
        field = "patient_id" if not pid.isprintable() else "lesion_id"
        with pytest.raises(DataError, match=f"'{field}' must be printable text"):
            load_manifest(manifest)
        assert main(["extract", "--manifest", str(manifest), "--out", str(root / "out")]) == 3
        assert not (root / "out").exists()
        return
    records = load_manifest(manifest)
    assert (records[0].patient_id, records[0].lesion_id) == (pid, lid)
    keys = [job[:3] for job in image_jobs(records)]
    store = FeatureStore(["original-shape-Volume"], keys, np.arange(len(keys)) / 3.0)
    path = write_features_csv(root / "features.csv", store, "config: {}")
    from_sidecar = read_features_csv(path)
    path.with_name("features.csv.npy").unlink()
    for back in (from_sidecar, read_features_csv(path)):
        assert back.keys == keys and back.values.tobytes() == store.values.tobytes()
