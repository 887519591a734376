import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radrisk
from radrisk.cli import _parse_sets, _write_correlation_tables, cli, main
from radrisk.cohort import BLOCK_TAGS, feature_set, label_samples, load_manifest
from radrisk.featurestore import (
    ROLE_FOLLOWUP,
    ROLE_PLAN_CT,
    ROLE_PLAN_MR,
    FeatureStore,
    read_features_csv,
    write_features_csv,
)
from radrisk.pipeline import build_dataset, image_jobs
from oracles import per_block_correlation_tables


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    code = main(["synth", "--seed", "17", "--lesions", "12", "--hrm-fraction", "0.25",
                 "--out", str(out)])
    assert code == 0
    code = main(["extract", "--manifest", str(out / "manifest.json"), "--out", str(out),
                 "--ng", "8", "--wavelet", "haar"])
    assert code == 0
    return out


def test_synth_writes_manifest_and_images(tmp_path):
    code = main(["synth", "--seed", "3", "--lesions", "3", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["patients"]) == 3
    assert (tmp_path / "images").is_dir()
    first = manifest["patients"][0]["lesions"][0]
    assert (tmp_path / first["planning_mr"]["image"]).exists()


def test_extract_outputs_and_rerun_identical(cohort_dir):
    csv_path = cohort_dir / "features.csv"
    sidecar = json.loads((cohort_dir / "features.json").read_text())
    assert sidecar["rows"] == 48  # 12 lesions x (plan mr + plan ct + 2 followups)
    first = csv_path.read_bytes()
    argv = ["extract", "--manifest", str(cohort_dir / "manifest.json"), "--out", str(cohort_dir),
            "--ng", "8", "--wavelet", "haar"]
    assert main(argv) == 0
    assert csv_path.read_bytes() == first  # resume path rewrites identical bytes

    # rows in another order, and a row of an image the manifest does not hold: the rows come in manifest order
    config, header, *rows = first.decode().splitlines()
    shuffled = [rows[k] for k in np.random.default_rng(0).permutation(len(rows))]
    foreign = "L-gone" + rows[0][rows[0].index(","):]
    csv_path.write_text("\n".join([config, header, *shuffled, foreign]) + "\n")
    assert main(argv) == 0
    assert csv_path.read_bytes() == first

    # a header-only table, as an empty manifest writes it: every image is extracted
    csv_path.write_text(f"{config}\nlesion_id,role,date\n")
    assert main(argv) == 0
    assert csv_path.read_bytes() == first


def test_extract_empty_manifest_header_only(tmp_path):
    (tmp_path / "empty.json").write_text(json.dumps({"patients": []}))
    code = main(["extract", "--manifest", str(tmp_path / "empty.json"), "--out", str(tmp_path)])
    assert code == 0
    lines = [l for l in (tmp_path / "features.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines == ["lesion_id,role,date"]


def test_ids_with_comma_and_quote_round_trip(tmp_path):
    cohort = tmp_path / "c"
    assert main(["synth", "--seed", "31", "--lesions", "8", "--hrm-fraction", "0.3",
                 "--out", str(cohort)]) == 0
    manifest = json.loads((cohort / "manifest.json").read_text())
    manifest["patients"][0]["lesions"][0]["lesion_id"] = "P,0001-L1"
    manifest["patients"][1]["lesions"][0]["lesion_id"] = 'P"0002-L1'
    (cohort / "manifest.json").write_text(json.dumps(manifest))
    assert main(["extract", "--manifest", str(cohort / "manifest.json"), "--out", str(cohort),
                 "--ng", "8", "--wavelet", "none"]) == 0
    text = (cohort / "features.csv").read_text()
    assert '"P,0001-L1",' in text and '"P""0002-L1",' in text
    code = main(["run", "--manifest", str(cohort / "manifest.json"), "--features", str(cohort / "features.csv"),
                 "--sets", "2", "--repeats", "2", "--out", str(tmp_path / "run")])
    assert code == 0


def test_extract_warns_when_it_discards_an_unreadable_table(cohort_dir, tmp_path, caplog):
    out = tmp_path / "ext"
    out.mkdir()
    (out / "features.csv").write_text("lesion_id,role,date,original-shape-Volume\nL1,followup,2010-01-01,x\n")
    with caplog.at_level("WARNING"):
        code = main(["extract", "--manifest", str(cohort_dir / "manifest.json"), "--out", str(out),
                     "--ng", "8", "--wavelet", "haar"])
    assert code == 0
    warnings = [m for m in caplog.messages if "unreadable" in m]
    assert len(warnings) == 1 and str(out / "features.csv") in warnings[0] and "bad value" in warnings[0]
    assert json.loads((out / "features.json").read_text())["rows"] == 48  # every image re-extracted


@pytest.mark.parametrize("rows_kept", ["all", "all-but-one"])
def test_extract_reextracts_a_table_with_other_feature_columns(cohort_dir, tmp_path, caplog, rows_kept):
    # the last feature column deleted, its config line intact
    config, *lines = (cohort_dir / "features.csv").read_text().splitlines()
    lines = [line[: line.rindex(",")] for line in lines]
    if rows_kept == "all-but-one":
        del lines[5]
    out = tmp_path / "ext"
    out.mkdir()
    (out / "features.csv").write_text("\n".join([config, *lines]) + "\n")
    with caplog.at_level("WARNING"):
        assert main(["extract", "--manifest", str(cohort_dir / "manifest.json"), "--out", str(out),
                     "--ng", "8", "--wavelet", "haar"]) == 0
    warnings = [m for m in caplog.messages if "feature columns" in m]
    assert len(warnings) == 1 and str(out / "features.csv") in warnings[0]
    for name in ("features.csv", "features.csv.npy"):  # every image extracted again
        assert (out / name).read_bytes() == (cohort_dir / name).read_bytes()


def _data_lines(csv_path: Path) -> list[str]:
    return [line for line in csv_path.read_text().splitlines() if not line.startswith("#")]


def test_extract_reextracts_when_the_settings_change(cohort_dir, tmp_path, caplog):
    manifest = str(cohort_dir / "manifest.json")
    fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
    assert main(["extract", "--manifest", manifest, "--out", str(fresh), "--ng", "16", "--wavelet", "none"]) == 0
    assert main(["extract", "--manifest", manifest, "--out", str(resumed), "--ng", "8", "--wavelet", "none"]) == 0
    with caplog.at_level("WARNING"):
        assert main(["extract", "--manifest", manifest, "--out", str(resumed), "--ng", "16",
                     "--wavelet", "none"]) == 0
    warnings = [m for m in caplog.messages if "other settings" in m]
    assert len(warnings) == 1 and str(resumed / "features.csv") in warnings[0]
    assert _data_lines(resumed / "features.csv") == _data_lines(fresh / "features.csv")
    assert json.loads((resumed / "features.json").read_text())["rows"] == 48

    # a config line that does not parse is handled the same way, and a value it hid is recomputed
    lines = (resumed / "features.csv").read_text().splitlines()
    lines[0] = "# config: {"
    lines[2] = lines[2][: lines[2].rindex(",") + 1] + "12345.0"
    (resumed / "features.csv").write_text("\n".join(lines) + "\n")
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert main(["extract", "--manifest", manifest, "--out", str(resumed), "--ng", "16",
                     "--wavelet", "none"]) == 0
    assert [m for m in caplog.messages if "re-extracting" in m] == [
        f"{resumed / 'features.csv'} records no extraction settings, re-extracting every image"]
    assert (resumed / "features.csv").read_bytes() == (fresh / "features.csv").read_bytes()


def test_a_resumed_extract_names_refused_settings_once(criterion10_cohort, tmp_path, caplog):
    # a '# config:' line with a value ExtractionConfig refuses: its reason, then one re-extract line
    out = tmp_path / "ext"
    out.mkdir()
    config, *lines = (criterion10_cohort / "features.csv").read_text().splitlines()
    recorded = json.loads(config.removeprefix("# config: "))
    (out / "features.csv").write_text("\n".join(["# config: " + json.dumps(recorded | {"n_bins": 1}), *lines]) + "\n")
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert main(["extract", "--manifest", str(criterion10_cohort / "manifest.json"), "--out", str(out),
                     "--ng", "8"]) == 0
    table = out / "features.csv"
    assert caplog.messages == [f"{table} records no extraction settings: n_bins must be >= 2, got 1",
                               f"{table} records no extraction settings, re-extracting every image"]
    assert table.read_bytes() == (criterion10_cohort / "features.csv").read_bytes()


def test_global_selection_warns_once_that_the_auc_is_optimistic(criterion10_cohort, tmp_path, caplog):
    manifest, features = str(criterion10_cohort / "manifest.json"), str(criterion10_cohort / "features.csv")
    runs = {"run": ["run", "--sets", "1,7"], "evaluate": ["evaluate", "--set", "7"]}
    for command, argv in runs.items():
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert main(argv + ["--manifest", manifest, "--features", features, "--repeats", "2",
                                "--global-selection", "--out", str(tmp_path / command)]) == 0
        logged = [m for m in caplog.messages if "--global-selection" in m]
        assert logged == ["--global-selection selects the features on every sample, test folds included: "
                          "the CV AUC is optimistic (README, 'Leakage')"], command


def test_extract_reports_the_rows_it_wrote(cohort_dir, tmp_path, capsys):
    manifest = json.loads((cohort_dir / "manifest.json").read_text())
    for patient in manifest["patients"]:  # absolute image paths, so the manifest can live elsewhere
        for lesion in patient["lesions"]:
            for ref in [lesion["planning_mr"], lesion["planning_ct"], *lesion["followups"]]:
                if ref:
                    ref["image"], ref["mask"] = str(cohort_dir / ref["image"]), str(cohort_dir / ref["mask"])
    manifest["patients"] = manifest["patients"][:9]
    (tmp_path / "subset.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    out.mkdir()
    (out / "features.csv").write_bytes((cohort_dir / "features.csv").read_bytes())  # all 12 patients
    capsys.readouterr()
    assert main(["extract", "--manifest", str(tmp_path / "subset.json"), "--out", str(out),
                 "--ng", "8", "--wavelet", "haar"]) == 0
    written = len(_data_lines(out / "features.csv")) - 1  # less the header
    assert 0 < written < 48
    assert json.loads((out / "features.json").read_text())["rows"] == written
    assert f"wrote {written} rows to" in capsys.readouterr().out


def test_exit_code_config_error(tmp_path):
    assert main(["extract", "--manifest", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2
    assert main(["run", "--manifest", str(tmp_path / "missing.json")]) == 2
    assert main(["nonsense-command"]) == 2


@pytest.mark.parametrize("per_samples", ["0", "-5"])
def test_per_samples_below_one_is_a_config_error(cohort_dir, tmp_path, per_samples):
    out = tmp_path / "run"
    assert main(["run", "--manifest", str(cohort_dir / "manifest.json"),
                 "--features", str(cohort_dir / "features.csv"), "--sets", "2", "--repeats", "2",
                 "--per-samples", per_samples, "--out", str(out)]) == 2
    assert not (out / "report.json").exists()
    # without --features, a bad CV setting exits before the cohort is extracted
    for bad in (["--per-samples", per_samples], ["--repeats", "0"]):
        assert main(["run", "--manifest", str(cohort_dir / "manifest.json"), "--sets", "2",
                     *bad, "--out", str(out)]) == 2
        assert not (out / "features.csv").exists() and not (out / "features.csv.npy").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--repeats", "0"],
    ["run", "--repeats", "0", "--features", "{features}"],
    ["run", "--per-samples", "0", "--features", "{features}"],
    ["run", "--ng", "0"],
    ["evaluate", "--repeats", "0", "--features", "{features}"],
    ["train", "--c", "-1", "--features", "{features}"],
    ["extract", "--ng", "1"],
    ["run", "--horizon-days", "0"],
    ["run", "--horizon-days", "0", "--features", "{features}"],
    ["evaluate", "--horizon-days", "-1", "--features", "{features}"],
    ["select", "--horizon", "0", "--features", "{features}"],
    ["km", "--horizon", "0"],
    # NaN passes every comparison check, so each classifier setting needs its own
    *[[command, *bad, "--features", "{features}"]
      for command in ("run", "evaluate", "train")
      for bad in (["--c", "nan"], ["--c", "inf"], ["--sensitivity-weight", "nan"], ["--theta", "nan"])],
    # only values that start no thread: a large --threads would start that many
    *[[*command, "--threads", threads]
      for command in (["extract"], ["evaluate", "--features", "{features}"], ["run"])
      for threads in ("0", "-1")],
    # a feature set id outside 1..7 is a usage error, caught before any directory is made
    *[[command, "--set", set_id, "--features", "{features}"]
      for command in ("select", "evaluate", "train")
      for set_id in ("0", "8")],
    # a seed that no random generator takes
    ["run", "--seed", "-1"],
    ["run", "--seed", "-1", "--features", "{features}"],
    ["evaluate", "--seed", "-1", "--features", "{features}"],
])
def test_invalid_settings_leave_no_output_directory(cohort_dir, tmp_path, argv):
    out = tmp_path / "new" / "out"
    argv = [arg.format(features=cohort_dir / "features.csv") for arg in argv]
    assert main([*argv, "--manifest", str(cohort_dir / "manifest.json"), "--out", str(out)]) == 2
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["select", "evaluate", "train", "run"])
def test_non_finite_feature_value_is_a_data_error(cohort_dir, tmp_path, capsys, command):
    manifest = cohort_dir / "manifest.json"
    sample = label_samples(load_manifest(manifest)).samples[0]
    store = read_features_csv(cohort_dir / "features.csv")
    values = store.values.copy()
    values[store.keys.index((sample.lesion_id, ROLE_FOLLOWUP, sample.imaging_date.isoformat())), 0] = np.nan
    features = write_features_csv(tmp_path / "features.csv", FeatureStore(store.names, store.keys, values),
                                  "config: {}")
    argv = [command, "--manifest", str(manifest), "--features", str(features), "--out", str(tmp_path / "out")]
    argv += {"run": ["--sets", "2", "--repeats", "2"], "evaluate": ["--set", "2", "--repeats", "2"]}.get(
        command, ["--set", "2"])
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"[assemble {sample.lesion_id}/{sample.imaging_date}] non-finite value nan" in err
    assert f"in column {BLOCK_TAGS['followup_mr']}-{store.names[0]}" in err
    assert not (tmp_path / "out" / "selection.json").exists()


def test_features_naming_a_directory_is_a_data_error(cohort_dir, tmp_path, capsys):
    assert main(["run", "--manifest", str(cohort_dir / "manifest.json"), "--features", str(tmp_path),
                 "--sets", "2", "--repeats", "2", "--out", str(tmp_path / "run")]) == 3
    assert "is not a file" in capsys.readouterr().err


def test_exit_code_data_error(tmp_path, cohort_dir):
    manifest = json.loads((cohort_dir / "manifest.json").read_text())
    lesion = manifest["patients"][0]["lesions"][0]
    img = cohort_dir / lesion["planning_mr"]["image"]
    img.write_text("{broken")
    try:
        code = main(["extract", "--manifest", str(cohort_dir / "manifest.json"),
                     "--out", str(cohort_dir / "broken-out"), "--ng", "8", "--force"])
        assert code == 3  # per-image failure logged, run continues, nonzero exit
        sidecar = json.loads((cohort_dir / "broken-out" / "features.json").read_text())
        assert len(sidecar["failures"]) == 1
        rows = (cohort_dir / "broken-out" / "features.csv").read_text()
        assert rows.count("\n") >= 40  # other images still extracted
    finally:
        code = main(["synth", "--seed", "17", "--lesions", "12", "--hrm-fraction", "0.25",
                     "--out", str(cohort_dir)])
        assert code == 0


def test_a_spacing_that_overflows_a_shape_feature_fails_that_image_alone(tmp_path):
    """A header's spacing may be any finite positive number. One at which a shape feature overflows, or its
    volume underflows to 0, makes its image a recorded failure (exit 3), and every other row is that of a clean
    extraction. The last case cuts the ROI to two voxels along x: its covariance stays finite, and its squared
    diameter overflows."""
    cohort = tmp_path / "cohort"
    assert main(["synth", "--seed", "1", "--lesions", "10", "--out", str(cohort)]) == 0
    manifest = cohort / "manifest.json"
    assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "clean"), "--ng", "8"]) == 0
    clean = read_features_csv(tmp_path / "clean" / "features.csv")
    lesion = json.loads(manifest.read_text())["patients"][0]["lesions"][0]
    followup = lesion["followups"][0]
    key = (lesion["lesion_id"], ROLE_FOLLOWUP, followup["date"])
    kept = [k for k, row_key in enumerate(clean.keys) if row_key != key]
    assert len(kept) == 39
    two_voxels = [1.5e154, 1e-100, 1e-100]
    for spacing in ([1e152, 1, 1], [1e200, 1, 1], [1e200, 1e200, 1], [1e-300, 1, 1], [1e-200, 1e-200, 1e-200],
                    two_voxels):
        if spacing is two_voxels:
            mask_header = cohort / followup["mask"]
            raw = mask_header.parent / json.loads(mask_header.read_text())["data_file"]
            payload = np.zeros(raw.stat().st_size // 4, dtype="<f4")
            payload[:2] = 1.0  # x-fastest: neighbors along x
            raw.write_bytes(payload.tobytes())
        for part in ("image", "mask"):
            header = cohort / followup[part]
            header.write_text(json.dumps(json.loads(header.read_text()) | {"spacing": spacing}))
        out = tmp_path / "broken"
        assert main(["extract", "--manifest", str(manifest), "--out", str(out), "--ng", "8", "--force"]) == 3, spacing
        store = read_features_csv(out / "features.csv")
        assert store.keys == [clean.keys[k] for k in kept]
        assert store.values.tobytes() == clean.values[kept].tobytes()
        sidecar = json.loads((out / "features.json").read_text())
        assert sidecar["rows"] == 39
        assert [f.split("]")[0] for f in sidecar["failures"]] == [f"[extract {'/'.join(key)}"]


def test_select_train_evaluate_km(cohort_dir, tmp_path):
    manifest = str(cohort_dir / "manifest.json")
    features = str(cohort_dir / "features.csv")
    out = tmp_path / "sel"
    assert main(["select", "--manifest", manifest, "--features", features,
                 "--set", "7", "--out", str(out)]) == 0
    selection = json.loads((out / "selection.json").read_text())
    assert selection["cap"] == max(1, selection["n_samples"] // 10)
    assert selection["selected"]
    assert (out / "table2_clinical.csv").exists()
    assert (out / "table2_wavelet.csv").exists()

    assert main(["train", "--manifest", manifest, "--features", features,
                 "--set", "2", "--out", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    assert model["format_version"] == 1
    assert len(model["w"]) == len(model["feature_names"])

    assert main(["evaluate", "--manifest", manifest, "--features", features,
                 "--set", "2", "--repeats", "3", "--out", str(out)]) == 0
    cv = json.loads((out / "cv_report.json").read_text())
    assert cv["repeats"] == 3
    assert cv["straddle_counts"] == [0, 0, 0]
    assert (out / "roc_oof.svg").exists()
    # evaluate echoes the extraction settings of the table it read
    svg = (out / "roc_oof.svg").read_text()
    table = {"n_bins": 8, "wavelet": "haar", "whitestripe": "mr", "zscore": True}
    for key, value in table.items():
        assert cv["config"][key] == value and f'"{key}": {json.dumps(value)}' in svg

    assert main(["km", "--manifest", manifest, "--out", str(out)]) == 0
    assert (out / "km_cohort.svg").exists()
    assert (out / "km_cohort.csv").exists()


@pytest.fixture(scope="module")
def criterion10_cohort(tmp_path_factory):
    """Criterion 10's cohort: 14 synthetic lesions, extracted at 8 gray levels."""
    out = tmp_path_factory.mktemp("criterion10")
    assert main(["synth", "--seed", "77", "--lesions", "14", "--hrm-fraction", "0.25", "--out", str(out)]) == 0
    assert main(["extract", "--manifest", str(out / "manifest.json"), "--out", str(out), "--ng", "8"]) == 0
    return out


def _table2(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("table2_*.csv"))}


@pytest.mark.parametrize("set_id", range(1, 8))
def test_select_table2_matches_the_per_block_writer(criterion10_cohort, tmp_path, set_id):
    manifest, features = criterion10_cohort / "manifest.json", criterion10_cohort / "features.csv"
    out = tmp_path / "select"
    assert main(["select", "--manifest", str(manifest), "--features", str(features),
                 "--set", str(set_id), "--out", str(out)]) == 0
    # selection.json and each table echo the table's settings and select's own
    config = {"manifest": str(manifest), "sets": [set_id], **_RECORDED, "per_samples": 10, "horizon_days": 100}
    selection = json.loads((out / "selection.json").read_text())
    assert next(iter(selection)) == "config" and list(selection["config"].items()) == list(config.items())
    dataset = build_dataset(load_manifest(manifest), read_features_csv(features), feature_set(set_id))
    want = tmp_path / "oracle"
    want.mkdir()
    per_block_correlation_tables(dataset, want, "config: " + json.dumps(config, sort_keys=True))
    blocks = feature_set(set_id).blocks
    assert sorted(_table2(want)) == sorted(f"table2_{block}.csv" for block in blocks)
    assert _table2(out) == _table2(want)


def test_table2_ties_constants_and_negative_r_match_the_per_block_writer(criterion10_cohort, tmp_path):
    """Exact |r| ties (a column, its negation and its power-of-two multiples), constant columns
    (r = 0) and negative r, in blocks longer and shorter than the 10 rows a table keeps."""
    records = load_manifest(criterion10_cohort / "manifest.json")
    names = [f"{prefix}firstorder-{k}" for prefix in ("original-", "wavelet-LLL-") for k in "ABC"]
    keys = [job[:3] for job in image_jobs(records)]
    rng = np.random.default_rng(50)
    store = FeatureStore(names, keys, rng.normal(size=(len(keys), len(names))))
    dataset = build_dataset(records, store, feature_set(7))
    n, d = dataset.X.shape
    signal = dataset.y + rng.normal(0.0, 0.5, size=n)
    X = rng.normal(size=(n, d))
    for j in range(d):
        X[:, j] = (signal * 2.0 ** (j % 3), -signal, np.full(n, 3.0), X[:, j])[j % 4]
    dataset = dataclasses.replace(dataset, X=X)
    got, want = tmp_path / "got", tmp_path / "want"
    got.mkdir()
    want.mkdir()
    _write_correlation_tables(dataset, got, "ties")
    per_block_correlation_tables(dataset, want, "ties")
    assert len(_table2(want)) == 6
    assert _table2(got) == _table2(want)
    rows = [line.split(",") for table in _table2(got).values() for line in table.decode().splitlines()[2:]]
    assert any(r == "0.0" for *_, r in rows) and any(r.startswith("-") for *_, r in rows)


def test_run_bundle_and_reproducibility(cohort_dir, tmp_path):
    manifest = str(cohort_dir / "manifest.json")
    features = str(cohort_dir / "features.csv")
    args = ["run", "--manifest", manifest, "--features", features,
            "--sets", "1,2", "--repeats", "3", "--seed", "11"]
    out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "r3"))
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert main(args + ["--out", str(out3), "--threads", "2"]) == 0

    def read_all(root: Path):
        return {
            p.name: p.read_bytes().replace(str(root).encode(), b"OUT")
            for p in sorted(root.iterdir()) if p.is_file()
        }

    a, b, c = read_all(out1), read_all(out2), read_all(out3)
    assert set(a) == set(b) == set(c)
    for name in a:
        assert a[name] == b[name], name  # identical run -> identical bytes
        assert a[name] == c[name], name  # thread count must not matter

    report = json.loads((out1 / "report.json").read_text())
    assert set(report["sets"]) == {"1", "2"}
    assert "mean_auc" in report["sets"]["1"]
    table1 = (out1 / "table1.csv").read_text()
    assert "Set 1," in table1 and "Set 2," in table1
    txt = (out1 / "table1.txt").read_text()
    assert "Clinical data" in txt and "AUC score" in txt


def test_outputs_do_not_depend_on_the_string_hash_seed(cohort_dir, tmp_path):
    """Every output file is the same under two string hash seeds, so none depends on set or dict order."""
    out = tmp_path / "out"
    manifest = str(cohort_dir / "manifest.json")
    commands = [
        ["extract", "--manifest", manifest, "--out", str(out), "--force", "--ng", "8"],
        ["run", "--manifest", manifest, "--features", str(out / "features.csv"), "--out", str(out),
         "--sets", "1,7", "--repeats", "4", "--seed", "5"],
    ]
    src = str(Path(radrisk.__file__).parents[1])
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        stdout = [subprocess.run([sys.executable, "-m", "radrisk.cli", *argv], env=env, capture_output=True,
                                 check=True).stdout for argv in commands]
        runs.append((stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        shutil.rmtree(out)
    assert "report.json" in runs[0][1] and "features.csv.npy" in runs[0][1]
    assert runs[1][0] == runs[0][0]
    assert runs[1][1].keys() == runs[0][1].keys()
    for name, data in runs[0][1].items():
        assert runs[1][1][name] == data, name


def test_config_echo_is_pinned(tmp_path):
    """The whole config echo of a run and an evaluation on criterion 10's cohort, key order
    included, in the JSON reports and in every ``# config:`` line and SVG comment."""
    cohort = tmp_path / "cohort"
    assert main(["synth", "--seed", "77", "--lesions", "14", "--hrm-fraction", "0.25", "--out", str(cohort)]) == 0
    manifest = str(cohort / "manifest.json")
    assert main(["extract", "--manifest", manifest, "--out", str(cohort), "--ng", "8"]) == 0

    run_out = tmp_path / "run"
    assert main(["run", "--manifest", manifest, "--ng", "8", "--sets", "1,7", "--repeats", "4", "--seed", "5",
                 "--out", str(run_out)]) == 0
    run_config = [
        ("manifest", manifest), ("sets", [1, 7]),
        ("n_bins", 8), ("wavelet", "haar"), ("whitestripe", "mr"), ("zscore", True),
        ("per_samples", 10), ("per_fold", True), ("C", 1.0), ("sensitivity_weight", 2.0), ("threshold", 0.0),
        ("repeats", 4), ("test_frac", 1.0 / 3.0), ("seed", 5), ("horizon_days", 100),
    ]
    eval_out = tmp_path / "eval"
    assert main(["evaluate", "--manifest", manifest, "--features", str(cohort / "features.csv"), "--set", "7",
                 "--repeats", "3", "--seed", "9", "--test-frac", "0.25", "--c", "0.5", "--sensitivity-weight", "3",
                 "--theta", "0.25", "--per-samples", "5", "--global-selection", "--horizon-days", "120",
                 "--out", str(eval_out)]) == 0
    eval_config = [
        ("manifest", manifest), ("sets", [7]),
        ("n_bins", 8), ("wavelet", "haar"), ("whitestripe", "mr"), ("zscore", True),
        ("per_samples", 5), ("per_fold", False), ("C", 0.5), ("sensitivity_weight", 3.0), ("threshold", 0.25),
        ("repeats", 3), ("test_frac", 0.25), ("seed", 9), ("horizon_days", 120),
    ]

    for out, report, config, commented, svgs in (
        (run_out, "report.json", run_config, ["table1.csv", "features.csv"], ["km_split.svg"]),
        (eval_out, "cv_report.json", eval_config, [], ["roc_oof.svg"]),
    ):
        echo = json.loads((out / report).read_text())["config"]
        assert list(echo.items()) == config
        comment = "config: " + json.dumps(dict(config), sort_keys=True)
        for name in commented:
            assert (out / name).read_text().splitlines()[0] == f"# {comment}", name
        for name in svgs:
            assert f"<!-- {comment} -->" in (out / name).read_text(), name


def _echoes(out: Path, report: str, svg: str) -> list[dict]:
    """The config echo of a bundle in its JSON report, its ``table1.csv`` (when written) and its SVG."""
    echoes = [json.loads((out / report).read_text())["config"]]
    if (out / "table1.csv").exists():
        echoes.append(json.loads((out / "table1.csv").read_text().splitlines()[0].removeprefix("# config: ")))
    svg_comment = (out / svg).read_text().split("<!-- config: ", 1)[1].split(" -->", 1)[0]
    return echoes + [json.loads(svg_comment)]


def test_run_features_echoes_the_settings_of_its_table(criterion10_cohort, tmp_path):
    """Criterion 10's flow: a table extracted at 8 gray levels gives a bundle that says so, with no flag
    for it on the command line."""
    manifest, features = criterion10_cohort / "manifest.json", criterion10_cohort / "features.csv"
    out = tmp_path / "run"
    assert main(["run", "--manifest", str(manifest), "--features", str(features), "--sets", "1,7",
                 "--repeats", "4", "--seed", "5", "--out", str(out)]) == 0
    table = {"n_bins": 8, "wavelet": "haar", "whitestripe": "mr", "zscore": True}
    assert dataclasses.asdict(read_features_csv(features).settings) == table
    for echo in _echoes(out, "report.json", "km_split.svg"):
        assert {key: echo[key] for key in table} == table


def test_an_extraction_setting_that_disagrees_with_the_table_exits_2(criterion10_cohort, tmp_path, capsys):
    manifest, features = criterion10_cohort / "manifest.json", criterion10_cohort / "features.csv"
    argv = ["run", "--manifest", str(manifest), "--features", str(features), "--sets", "1", "--repeats", "2"]
    out = tmp_path / "new" / "out"
    capsys.readouterr()
    assert main(argv + ["--ng", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "n_bins 16" in err and "n_bins 8" in err and str(features) in err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"wavelet": "none"}))
    assert main(argv + ["--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "wavelet 'none'" in err and "wavelet 'haar'" in err
    assert not out.parent.exists()
    # a setting given as the table has it runs
    config.write_text(json.dumps({"wavelet": "haar", "zscore": True}))
    assert main(argv + ["--ng", "8", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["n_bins"] == 8


def test_a_bad_setting_exits_2_before_the_manifest_is_read(tmp_path, capsys):
    """extract and run check their extraction settings before they read the manifest: a bad --ng with a bad
    manifest exits 2, naming the setting, and makes no output directory."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"patients": 5}))
    out = tmp_path / "new" / "out"
    for command in ("extract", "run"):
        capsys.readouterr()
        assert main([command, "--manifest", str(manifest), "--ng", "1", "--out", str(out)]) == 2, command
        assert "n_bins must be >= 2, got 1" in capsys.readouterr().err, command
        assert not out.parent.exists(), command
        # with a good setting, the manifest's own error
        assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 3, command
        assert "'patients' must be an array" in capsys.readouterr().err, command
        assert not out.parent.exists(), command


_RECORDED = {"n_bins": 8, "wavelet": "haar", "whitestripe": "mr", "zscore": True}


@pytest.mark.parametrize("first_line, reason", [
    (None, "its first line is not a '# config:' line"),
    ("# config: {", "its '# config:' line is not a JSON object"),
    ('# config: {"n_bins": 8}', "its '# config:' line has no 'wavelet'"),
    ("# config: [8]", "its '# config:' line is not a JSON object"),
    ("# made by hand", "its first line is not a '# config:' line"),
    # values that ExtractionConfig refuses, with its reason
    ("# config: " + json.dumps(_RECORDED | {"n_bins": 1}), "n_bins must be >= 2, got 1"),
    ("# config: " + json.dumps(_RECORDED | {"wavelet": "db4"}),
     "wavelet must be 'none' or one of ['coif1', 'haar'], got 'db4'"),
    ("# config: " + json.dumps(_RECORDED | {"zscore": 1}), "zscore must be a bool, got 1"),
], ids=["none", "not-json", "a-key-missing", "not-an-object", "another-comment", "n_bins-1", "wavelet-db4",
        "zscore-1"])
def test_a_table_without_readable_settings_is_echoed_without_them(cohort_dir, tmp_path, caplog, first_line,
                                                                  reason):
    config, *lines = (cohort_dir / "features.csv").read_text().splitlines()
    features = tmp_path / "features.csv"
    features.write_text("\n".join(([first_line] if first_line else []) + lines) + "\n")
    assert read_features_csv(features).settings is None
    manifest = str(cohort_dir / "manifest.json")
    runs = {"run": (["run", "--sets", "1", "--ng", "16"], "report.json", "km_split.svg"),
            "evaluate": (["evaluate", "--set", "1"], "cv_report.json", "roc_oof.svg")}
    for command, (argv, report, svg) in runs.items():
        out = tmp_path / command
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert main(argv + ["--manifest", manifest, "--features", str(features), "--repeats", "2",
                                "--out", str(out)]) == 0
        logged = [m for m in caplog.messages if "records no extraction settings" in m]
        assert logged == [f"{features} records no extraction settings: {reason}"], command
        for echo in _echoes(out, report, svg):
            assert not echo.keys() & {"n_bins", "wavelet", "whitestripe", "zscore"}, command
    out = tmp_path / "select"
    assert main(["select", "--manifest", manifest, "--features", str(features), "--set", "1", "--out", str(out)]) == 0
    echoes = [json.loads((out / "selection.json").read_text())["config"]]
    echoes += [json.loads(p.read_text().splitlines()[0].removeprefix("# config: ")) for p in out.glob("table2_*")]
    assert len(echoes) >= 2 and all(echo.keys() == {"manifest", "sets", "per_samples", "horizon_days"}
                                    for echo in echoes)


def test_a_set_with_the_wavelet_block_on_a_table_without_one_is_refused(tmp_path, capsys):
    cohort = tmp_path / "cohort"
    assert main(["synth", "--seed", "31", "--lesions", "16", "--hrm-fraction", "0.3", "--out", str(cohort)]) == 0
    manifest = str(cohort / "manifest.json")
    assert main(["extract", "--manifest", manifest, "--out", str(cohort), "--ng", "8", "--wavelet", "none"]) == 0
    features = str(cohort / "features.csv")
    out = tmp_path / "new" / "out"
    capsys.readouterr()
    for argv in (["run", "--sets", "6,7", "--repeats", "2"], ["evaluate", "--set", "7", "--repeats", "2"],
                 ["select", "--set", "7"], ["train", "--set", "7"]):
        assert main([*argv, "--manifest", manifest, "--features", features, "--out", str(out)]) == 3, argv
        err = capsys.readouterr().err
        assert "feature set 7 has the wavelet block" in err and "wavelet 'none'" in err, argv
        assert not out.parent.exists(), argv
    # an auto-extracting run would extract no wavelet columns for it
    assert main(["run", "--manifest", manifest, "--wavelet", "none", "--sets", "1,7", "--out", str(out)]) == 2
    assert "feature set 7 has the wavelet block" in capsys.readouterr().err
    assert not out.parent.exists()
    assert main(["run", "--manifest", manifest, "--features", features, "--sets", "1-6", "--repeats", "2",
                 "--out", str(out)]) == 0


def test_a_run_on_a_table_leaves_it_resumable(tmp_path, caplog):
    cohort = tmp_path / "cohort"
    assert main(["synth", "--seed", "31", "--lesions", "8", "--hrm-fraction", "0.3", "--out", str(cohort)]) == 0
    extract = ["extract", "--manifest", str(cohort / "manifest.json"), "--out", str(cohort), "--ng", "8",
               "--wavelet", "none"]
    assert main(extract) == 0
    written = {name: (cohort / name).read_bytes() for name in ("features.csv", "features.csv.npy", "features.json")}
    assert main(["run", "--manifest", str(cohort / "manifest.json"), "--features", str(cohort / "features.csv"),
                 "--sets", "2", "--repeats", "2", "--out", str(tmp_path / "run")]) == 0
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert main(extract) == 0
    assert not [m for m in caplog.messages if "re-extracting" in m]
    assert {name: (cohort / name).read_bytes() for name in written} == written


def test_run_emits_seven_row_table(cohort_dir, tmp_path):
    out = tmp_path / "allsets"
    code = main(["run", "--manifest", str(cohort_dir / "manifest.json"),
                 "--features", str(cohort_dir / "features.csv"),
                 "--sets", "1-7", "--repeats", "2", "--out", str(out)])
    assert code == 0
    rows = [l for l in (out / "table1.csv").read_text().splitlines()
            if l.startswith("Set ")]
    assert len(rows) == 7
    assert rows[0].startswith("Set 1,x,,,,,")       # clinical only
    assert rows[6].startswith("Set 7,x,x,x,x,x,x")  # everything
    txt = (out / "table1.txt").read_text().splitlines()
    assert txt[0].strip().startswith("Set 1")
    assert txt[-1].startswith("AUC score")
    assert len([c for c in txt[1] if c == "x"]) == 7  # clinical row all sets


@pytest.mark.parametrize("argv", [
    ["--followups", "0,0"],
    ["--followups", "3,1"],
    ["--followups", "-1,2"],
    ["--hrm-fraction", "1.5"],
    ["--hrm-fraction", "-1"],
    ["--ct-missing", "2"],
    ["--texture", "-1"],
    ["--texture", "nan"],
    ["--texture", "inf"],
    ["--growth", "-1"],
    ["--growth", "nan"],
    ["--growth", "inf"],
    ["--seed", "-1"],
])
def test_synth_settings_out_of_range_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "cohort"
    assert main(["synth", "--lesions", "3", *argv, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_synth_nifti_format_roundtrip(tmp_path):
    out = tmp_path / "nifti"
    assert main(["synth", "--seed", "2", "--lesions", "3", "--format", "nifti1",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    first = manifest["patients"][0]["lesions"][0]["planning_mr"]["image"]
    assert first.endswith(".nii")
    assert main(["extract", "--manifest", str(out / "manifest.json"),
                 "--out", str(out), "--ng", "8", "--wavelet", "none"]) == 0
    lines = (out / "features.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("lesion_id")][0]
    assert len(header.split(",")) == 3 + 98
    # the file format changes no value: NIfTI stores no modality, and the manifest role
    # alone decides which images are white-striped
    raw = tmp_path / "rawjson"
    assert main(["synth", "--seed", "2", "--lesions", "3", "--format", "rawjson",
                 "--out", str(raw)]) == 0
    assert main(["extract", "--manifest", str(raw / "manifest.json"),
                 "--out", str(raw), "--ng", "8", "--wavelet", "none"]) == 0
    nifti, rawjson = read_features_csv(out / "features.csv"), read_features_csv(raw / "features.csv")
    assert nifti.keys == rawjson.keys
    roles = np.array([role for _, role, _ in nifti.keys])
    for role in (ROLE_PLAN_MR, ROLE_PLAN_CT, ROLE_FOLLOWUP):
        assert (roles == role).any()
        assert np.array_equal(nifti.values[roles == role], rawjson.values[roles == role]), role


def test_a_nifti_cohort_with_ct_less_lesions(tmp_path):
    """Lesions without planning CT are written as null, extracted without a CT row, and excluded only from
    the sets that hold the CT block."""
    out = tmp_path / "cohort"
    assert main(["synth", "--seed", "5", "--lesions", "24", "--hrm-fraction", "0.3", "--ct-missing", "0.3",
                 "--format", "nifti1", "--out", str(out)]) == 0
    lesions = [lesion for patient in json.loads((out / "manifest.json").read_text())["patients"]
               for lesion in patient["lesions"]]
    ct_less = [lesion["lesion_id"] for lesion in lesions if lesion["planning_ct"] is None]
    assert len(ct_less) == 4
    assert main(["extract", "--manifest", str(out / "manifest.json"), "--out", str(out), "--ng", "8"]) == 0
    assert json.loads((out / "features.json").read_text())["rows"] == 92
    roles = [role for _, role, _ in read_features_csv(out / "features.csv").keys]
    assert [roles.count(role) for role in (ROLE_PLAN_MR, ROLE_PLAN_CT, ROLE_FOLLOWUP)] == [24, 20, 48]
    assert main(["run", "--manifest", str(out / "manifest.json"), "--features", str(out / "features.csv"),
                 "--sets", "1,5", "--repeats", "4", "--out", str(out / "run")]) == 0
    excluded = json.loads((out / "run" / "report.json").read_text())["excluded_lesions"]
    assert excluded == {"1": [], "5": ct_less}


def test_lesion_id_under_two_patients_is_a_data_error(tmp_path, capsys):
    assert main(["synth", "--seed", "3", "--lesions", "4", "--out", str(tmp_path)]) == 0
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    first, second = (p["lesions"][0] for p in manifest["patients"][:2])
    second["lesion_id"] = first["lesion_id"]
    path.write_text(json.dumps(manifest))
    assert main(["extract", "--manifest", str(path), "--out", str(tmp_path), "--ng", "8",
                 "--wavelet", "none"]) == 3
    err = capsys.readouterr().err
    assert repr(first["lesion_id"]) in err
    assert all(repr(p["patient_id"]) in err for p in manifest["patients"][:2])
    assert not (tmp_path / "features.csv").exists()


def test_run_with_config_file(cohort_dir, tmp_path):
    cfg = {"sets": "1", "repeats": 2, "seed": 4}
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(cohort_dir / "manifest.json"),
                 "--features", str(cohort_dir / "features.csv"),
                 "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["repeats"] == 2
    assert report["config"]["sets"] == [1]
    assert report["sets"]["1"]["nonconverged_fits"] == 0
    assert 0.0 < report["sets"]["1"]["max_kkt_residual"] < 1e-6
    # flags take precedence over the config file
    out2 = tmp_path / "out2"
    code = main(["run", "--manifest", str(cohort_dir / "manifest.json"),
                 "--features", str(cohort_dir / "features.csv"),
                 "--config", str(cfg_path), "--repeats", "3", "--out", str(out2)])
    assert code == 0
    assert json.loads((out2 / "report.json").read_text())["config"]["repeats"] == 3
    # unknown keys, and values the flag's own type refuses, are config errors
    bad = tmp_path / "bad.json"
    for value in ({"unknown_key": 1}, {"n_bins": None}, {"repeats": "three"}, {"repeats": 2.5},
                  {"repeats": True}, {"c_value": None}, {"zscore": [1]}, {"wavelet": "db4"},
                  {"test_frac": {"value": 0.3}}, {"sets": None}, {"horizon_days": 0}, {"seed": -1}, [1, 2]):
        bad.write_text(json.dumps(value))
        assert main(["run", "--manifest", str(cohort_dir / "manifest.json"),
                     "--config", str(bad), "--out", str(tmp_path / "x")]) == 2, value
    assert not (tmp_path / "x").exists()


def test_run_auto_extracts_when_no_features_given(tmp_path):
    cohort = tmp_path / "c"
    assert main(["synth", "--seed", "31", "--lesions", "8", "--hrm-fraction", "0.3",
                 "--out", str(cohort)]) == 0
    out = tmp_path / "run"
    code = main(["run", "--manifest", str(cohort / "manifest.json"),
                 "--sets", "2", "--repeats", "2", "--ng", "8", "--wavelet", "none",
                 "--out", str(out)])
    assert code == 0
    assert (out / "features.csv").exists()  # auto-extraction artifact
    assert (out / "features.csv.npy").exists()  # and its binary sidecar
    assert (out / "report.json").exists()


def test_env_var_default_out(cohort_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("RADRISK_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["km", "--manifest", str(cohort_dir / "manifest.json")]) == 0
    assert (tmp_path / "envout" / "km_cohort.svg").exists()


# Every command's parameters as (name, flags, default, required). The names are also the keys
# that `run --config` accepts, so a change here changes the config-file format.
CLI_SURFACE = {
    "synth": [
        ("seed", ("--seed",), 0, False),
        ("lesions", ("--lesions",), 40, False),
        ("out_dir", ("--out",), None, False),
        ("hrm_fraction", ("--hrm-fraction",), 0.1, False),
        ("growth", ("--growth",), 0.5, False),
        ("texture", ("--texture",), 2.0, False),
        ("ct_missing", ("--ct-missing",), 0.0, False),
        ("followups", ("--followups",), "2,2", False),
        ("fmt", ("--format",), "rawjson", False),
    ],
    "extract": [
        ("manifest", ("--manifest",), None, True),
        ("out_dir", ("--out",), None, False),
        ("n_bins", ("--ng",), 32, False),
        ("wavelet", ("--wavelet",), "haar", False),
        ("whitestripe", ("--whitestripe",), "mr", False),
        ("zscore", ("--zscore", "--no-zscore"), True, False),
        ("force", ("--force",), False, False),
        ("threads", ("--threads",), 1, False),
    ],
    "select": [
        ("manifest", ("--manifest",), None, True),
        ("features_path", ("--features",), None, True),
        ("set_id", ("--set",), 7, False),
        ("horizon_days", ("--horizon", "--horizon-days"), 100, False),
        ("out_dir", ("--out",), None, False),
    ],
    "train": [
        ("manifest", ("--manifest",), None, True),
        ("features_path", ("--features",), None, True),
        ("set_id", ("--set",), 7, False),
        ("horizon_days", ("--horizon", "--horizon-days"), 100, False),
        ("c_value", ("--c", "-C"), 1.0, False),
        ("sensitivity_weight", ("--sensitivity-weight",), 2.0, False),
        ("theta", ("--theta",), 0.0, False),
        ("out_dir", ("--out",), None, False),
    ],
    "evaluate": [
        ("manifest", ("--manifest",), None, True),
        ("features_path", ("--features",), None, True),
        ("set_id", ("--set",), 7, False),
        ("repeats", ("--repeats",), 100, False),
        ("test_frac", ("--test-frac",), 0.3333333333333333, False),
        ("seed", ("--seed",), 0, False),
        ("c_value", ("--c", "-C"), 1.0, False),
        ("sensitivity_weight", ("--sensitivity-weight",), 2.0, False),
        ("theta", ("--theta",), 0.0, False),
        ("per_samples", ("--per-samples",), 10, False),
        ("global_selection", ("--global-selection",), False, False),
        ("horizon_days", ("--horizon", "--horizon-days"), 100, False),
        ("threads", ("--threads",), 1, False),
        ("out_dir", ("--out",), None, False),
    ],
    "km": [
        ("manifest", ("--manifest",), None, True),
        ("horizon_days", ("--horizon", "--horizon-days"), 100, False),
        ("out_dir", ("--out",), None, False),
    ],
    "run": [
        ("manifest", ("--manifest",), None, True),
        ("features_path", ("--features",), None, False),
        ("sets", ("--sets",), "7", False),
        ("n_bins", ("--ng",), 32, False),
        ("wavelet", ("--wavelet",), "haar", False),
        ("whitestripe", ("--whitestripe",), "mr", False),
        ("zscore", ("--zscore", "--no-zscore"), True, False),
        ("repeats", ("--repeats",), 100, False),
        ("test_frac", ("--test-frac",), 0.3333333333333333, False),
        ("seed", ("--seed",), 0, False),
        ("c_value", ("--c", "-C"), 1.0, False),
        ("sensitivity_weight", ("--sensitivity-weight",), 2.0, False),
        ("theta", ("--theta",), 0.0, False),
        ("per_samples", ("--per-samples",), 10, False),
        ("global_selection", ("--global-selection",), False, False),
        ("horizon_days", ("--horizon", "--horizon-days"), 100, False),
        ("threads", ("--threads",), 1, False),
        ("config_path", ("--config",), None, False),
        ("out_dir", ("--out",), None, False),
    ],
}


def test_cli_surface_is_locked():
    surface = {
        name: [(d["name"], tuple(d["opts"] + d["secondary_opts"]), d["default"], d["required"])
               for d in (param.to_info_dict() for param in command.params)]
        for name, command in cli.commands.items()
    }
    assert surface == CLI_SURFACE


@pytest.mark.parametrize("argv, code", [
    (["run", "--manifest", "{bad}", "--features", "{features}"], 3),
    (["run", "--config", "{bad}", "--manifest", "{manifest}", "--features", "{features}"], 2),
    (["run", "--features", "{bad}", "--manifest", "{manifest}"], 3),
    (["extract", "--manifest", "{manifest}", "--ng", "8"], 0),  # {bad} is the table it would resume
], ids=["manifest", "config", "features", "resumed-table"])
def test_non_utf8_input_files_end_in_their_exit_code(cohort_dir, tmp_path, caplog, argv, code):
    out = tmp_path / "out"
    out.mkdir()
    bad = out / "features.csv"
    bad.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    paths = {"bad": bad, "manifest": cohort_dir / "manifest.json", "features": cohort_dir / "features.csv"}
    with caplog.at_level("WARNING"):
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == code
    if argv[0] == "extract":  # the table is unreadable, so every image is extracted again
        assert any("unreadable" in m and "UTF-8" in m for m in caplog.messages)
        assert json.loads((out / "features.json").read_text())["rows"] == 48


@pytest.mark.parametrize("argv, code", [
    (["km", "--manifest", "{dir}", "--out", "{out}"], 3),
    (["extract", "--manifest", "{dir}", "--out", "{out}"], 3),
    (["select", "--manifest", "{dir}", "--features", "{features}", "--out", "{out}"], 3),
    (["run", "--config", "{dir}", "--manifest", "{manifest}", "--features", "{features}", "--out", "{out}"], 2),
    (["km", "--manifest", "{manifest}", "--out", "{file}"], 2),
    (["run", "--manifest", "{manifest}", "--features", "{features}", "--sets", "1", "--repeats", "2",
      "--out", "{file}"], 2),
    (["synth", "--lesions", "2", "--out", "{file}"], 2),
    (["run", "--manifest", "{dir}", "--features", "{features}", "--out", "{out}"], 3),
    (["evaluate", "--manifest", "{dir}", "--features", "{features}", "--out", "{out}"], 3),
    (["run", "--manifest", "{manifest}", "--features", "{dir}", "--out", "{out}"], 3),
], ids=["km-manifest", "extract-manifest", "select-manifest", "run-config", "km-out", "run-out", "synth-out",
        "run-manifest", "evaluate-manifest", "run-features"])
def test_paths_of_the_wrong_kind_end_in_their_exit_code(cohort_dir, tmp_path, capsys, argv, code):
    # a directory where a file is read, or a file where the output directory goes
    paths = {"dir": tmp_path / "a-dir", "file": tmp_path / "a-file", "out": tmp_path / "out",
             "manifest": cohort_dir / "manifest.json", "features": cohort_dir / "features.csv"}
    paths["dir"].mkdir()
    paths["file"].write_text("")
    bad = paths["dir"] if "{dir}" in argv else paths["file"]
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == code
    assert any(line.startswith("error: ") and str(bad) in line for line in capsys.readouterr().err.splitlines())
    if bad == paths["dir"]:  # an unreadable input leaves no output directory behind
        assert not paths["out"].exists()


@pytest.mark.parametrize("sets", ["1-1000000000000", "1000000000000-1", "0-3", "2,5-8", "7-0"])
def test_set_ranges_are_bounded_before_they_are_expanded(tmp_path, capsys, sets):
    # a range is checked at both ends first: the first bound would not fit in memory as a list
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(tmp_path / "manifest.json"), "--sets", sets, "--out", str(out)]) == 2
    assert "feature sets must be within 1..7" in capsys.readouterr().err
    assert not out.exists()


def test_a_reversed_set_range_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(tmp_path / "manifest.json"), "--sets", "7-1", "--out", str(out)]) == 2
    assert "feature set range '7-1' is reversed" in capsys.readouterr().err
    assert not out.exists()


def test_set_ranges_expand_within_bounds():
    assert _parse_sets("2-4, 7,3-3") == (2, 3, 4, 7)


def test_run_logs_each_dropped_followup_once(cohort_dir, tmp_path, caplog):
    manifest = json.loads((cohort_dir / "manifest.json").read_text())
    for lesion in manifest["patients"][0]["lesions"] + manifest["patients"][1]["lesions"]:
        lesion["event_date"] = lesion["followups"][-1]["date"]  # its last follow-up is on the event day
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    dropped = label_samples(load_manifest(path)).dropped
    assert dropped
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert main(["run", "--manifest", str(path), "--features", str(cohort_dir / "features.csv"),
                     "--sets", "1-7", "--repeats", "2", "--out", str(tmp_path / "out")]) == 0
    logged = [m for m in caplog.messages if "dropped" in m]
    assert sorted(logged) == sorted(f"{lesion_id} {date} dropped: {reason}" for lesion_id, date, reason in dropped)
