"""A seeded edge-input sweep over criterion 10's manifest and feature table, and
the refusals of settings, files, models and library calls that it does not reach.

Each mutated input goes through the commands that read it. Every run must end
in exit 0, 2 or 3, never in a traceback; a refusal must print one error line
that names the mutated file, and leave no ``--out`` behind.
"""

import copy
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from radrisk import classifier
from radrisk.cli import main
from radrisk.cohort import ImageSource, delta_features
from radrisk.errors import ConfigError, DataError
from radrisk.evaluation import kaplan_meier, risk_split_report, roc_curve
from radrisk.features import ExtractionConfig, discretize, shape_features, texture_features
from radrisk.pipeline import Dataset
from radrisk.selection import mrmr_select, pearson
from radrisk.synth import synth_cohort
from radrisk.volume import RoiMask, VolumeImage, read_volume, white_stripe_stats, write_volume

RETYPED = [None, 0, -1, 2.5, True, "", "x", "2010-02-30", [], [1], {}, {"a": 1}]


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """Criterion 10's cohort: 14 synthetic lesions, extracted at 8 gray levels."""
    out = tmp_path_factory.mktemp("criterion10")
    assert main(["synth", "--seed", "77", "--lesions", "14", "--hrm-fraction", "0.25", "--out", str(out)]) == 0
    assert main(["extract", "--manifest", str(out / "manifest.json"), "--out", str(out), "--ng", "8"]) == 0
    return out


def _fields(node, path=()):
    """The path of every object member and list element under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


def _manifest_texts(manifest: dict, rng, count: int):
    """``count`` manifests, each with one field dropped, retyped or duplicated."""
    paths = list(_fields(manifest))
    for k in range(count):
        data = copy.deepcopy(manifest)
        path = paths[int(rng.integers(len(paths)))]
        parent, key = _parent(data, path), path[-1]
        kind = ("drop", "retype", "duplicate")[k % 3]
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = RETYPED[int(rng.integers(len(RETYPED)))]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:  # the member written twice, the second time with a retyped value; JSON keeps the last
            text = json.dumps(data)
            member = json.dumps({key: parent[key]})[1:-1]
            twice = f"{member}, {json.dumps({key: RETYPED[int(rng.integers(len(RETYPED)))]})[1:-1]}"
            yield f"{kind} {path}", text.replace(member, twice, 1)
            continue
        yield f"{kind} {path}", json.dumps(data)


def _table_texts(text: str, rng, count: int):
    """``count`` feature tables: truncated, blanked, with the key columns reordered, or with text in a cell."""
    config, header, *rows = text.splitlines()
    for k in range(count):
        kind = ("truncate", "blank", "reorder", "text")[k % 4]
        if kind == "truncate":
            yield kind, text[: int(rng.integers(len(text)))]
        elif kind == "blank":
            lines = [config, header, *rows]
            at = int(rng.integers(len(lines)))
            yield f"{kind} line {at}", "\n".join(lines[:at] + [" " * int(rng.integers(2))] + lines[at + 1:]) + "\n"
        elif kind == "reorder":
            order = [int(j) for j in rng.permutation(3)]
            if order == [0, 1, 2]:
                order = [2, 0, 1]
            lines = [",".join([cells[j] for j in order] + cells[3:])
                     for cells in (line.split(",") for line in [header, *rows])]
            yield f"{kind} {order}", "\n".join([config, *lines]) + "\n"
        else:
            lines = [header, *rows]
            at = 1 + int(rng.integers(len(rows)))
            cells = lines[at].split(",")
            cells[int(rng.integers(len(cells)))] = ("abc", "1.0.0", "", "nan?", "0x1p3")[k % 5]
            lines[at] = ",".join(cells)
            yield f"{kind} row {at}", "\n".join([config, *lines]) + "\n"


def _check(argv, named: Path, out: Path, capsys, case: str) -> int:
    capsys.readouterr()
    try:
        with warnings.catch_warnings():  # a warning would print to stderr too
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(out)])
    except Exception as exc:  # the CLI would print a traceback
        pytest.fail(f"{case}: {argv[0]} raised {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (case, argv[0], code, err)
    assert "Traceback" not in err, (case, argv[0])
    if code:
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and str(named) in errors[0], (case, argv[0], err)
        assert not out.exists(), (case, argv[0])
    return code


def test_mutated_manifests_end_in_an_exit_code(cohort, tmp_path, capsys):
    rng = np.random.default_rng(130)
    manifest = json.loads((cohort / "manifest.json").read_text(encoding="utf-8"))
    features = str(cohort / "features.csv")
    codes = []
    for k, (case, text) in enumerate(_manifest_texts(manifest, rng, 90)):
        path = tmp_path / f"m{k}.json"
        path.write_text(text, encoding="utf-8")
        codes.append(_check(["km", "--manifest", str(path)], path, tmp_path / f"km{k}", capsys, case))
        codes.append(_check(["select", "--manifest", str(path), "--features", features, "--set", "7"], path,
                            tmp_path / f"select{k}", capsys, case))
    assert {0, 3} <= set(codes)  # the sweep reaches both accepted and refused manifests


def test_mutated_tables_end_in_an_exit_code(cohort, tmp_path, capsys):
    rng = np.random.default_rng(131)
    manifest = str(cohort / "manifest.json")
    codes = []
    for k, (case, text) in enumerate(_table_texts((cohort / "features.csv").read_text(encoding="utf-8"), rng, 80)):
        path = tmp_path / f"t{k}.csv"
        path.write_text(text, encoding="utf-8")
        codes.append(_check(["select", "--manifest", manifest, "--features", str(path), "--set", "7"], path,
                            tmp_path / f"select{k}", capsys, case))
    assert {0, 3} <= set(codes)


# ---------------------------------------------------------------------------
# refusals that name their cause: settings, missing files, an empty table, a constant image


def _refused(argv, out: Path, capsys) -> tuple[int, str]:
    """The exit code and the one error line of a CLI run that must refuse, which prints no traceback."""
    capsys.readouterr()
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err, argv
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1, (argv, err)
    return code, errors[0]


@pytest.mark.parametrize("argv, cause", [
    (["run", "--sets", "9"], "feature sets must be within 1..7, got '9'"),
    (["run", "--sets", "1-x"], "cannot parse feature sets '1-x'"),
    (["run", "--config", "{missing}"], "config file not found: {missing}"),
    # a null --features is no table: the run would extract, and wavelet 'none' cannot give set 7
    (["run", "--config", "{null_features}"], "feature set 7 has the wavelet block, which wavelet 'none' does not"),
    (["synth", "--followups", "2"], "--followups must be 'min,max', got '2'"),
    (["evaluate", "--test-frac", "0"], "test_frac must be in (0, 1), got 0.0"),
    (["evaluate", "--test-frac", "1"], "test_frac must be in (0, 1), got 1.0"),
], ids=["sets-9", "sets-1-x", "config-missing", "config-null-features", "followups-2", "test-frac-0",
        "test-frac-1"])
def test_a_bad_setting_exits_2_and_leaves_no_out(cohort, tmp_path, capsys, argv, cause):
    paths = {"missing": str(tmp_path / "missing.json"), "null_features": str(tmp_path / "null.json")}
    (tmp_path / "null.json").write_text(json.dumps({"features_path": None, "wavelet": "none"}), encoding="utf-8")
    argv = [arg.format(**paths) for arg in argv]
    cause = cause.format(**paths)
    if argv[0] != "synth":
        argv += ["--manifest", str(cohort / "manifest.json")]
    if argv[0] == "evaluate":
        argv += ["--features", str(cohort / "features.csv")]
    out = tmp_path / "out"
    code, error = _refused(argv, out, capsys)
    assert code == 2 and cause in error, (code, error)
    assert not out.exists()


def test_a_missing_or_empty_table_exits_3_and_leaves_no_out(cohort, tmp_path, capsys):
    missing, empty = tmp_path / "missing.csv", tmp_path / "empty.csv"
    header = (cohort / "features.csv").read_text(encoding="utf-8").splitlines()[:1]
    empty.write_text("\n".join(header + ["# another"]) + "\n", encoding="utf-8")
    for table, cause in ((missing, f"feature CSV not found: {missing}"), (empty, f"feature CSV {empty} is empty")):
        out = tmp_path / "out"
        code, error = _refused(["run", "--manifest", str(cohort / "manifest.json"), "--features", str(table)], out,
                               capsys)
        assert code == 3 and cause in error, (code, error)
        assert not out.exists()


def test_an_auto_extracting_run_names_a_constant_image(cohort, tmp_path, capsys):
    copied = tmp_path / "cohort"
    shutil.copytree(cohort / "images", copied / "images")
    shutil.copy(cohort / "manifest.json", copied)
    lesion = json.loads((cohort / "manifest.json").read_text(encoding="utf-8"))["patients"][0]["lesions"][0]
    image = copied / lesion["planning_mr"]["image"]
    voxels = read_volume(image)
    write_volume(VolumeImage(np.full_like(voxels.voxels, 7.0), voxels.spacing, voxels.modality), image)
    code, error = _refused(["run", "--manifest", str(copied / "manifest.json"), "--ng", "8"], tmp_path / "out", capsys)
    key = f"{lesion['lesion_id']}/planning_mr/{lesion['planning_date']}"
    assert code == 3, (code, error)
    assert error.startswith(f"error: [extract {key}] constant image: zero variance"), error


def test_load_model_refuses_another_format_version(tmp_path):
    X, y = np.random.default_rng(5).normal(size=(12, 2)), np.array([0, 1] * 6)
    path = classifier.fit(X, y, ["a", "b"]).save(tmp_path / "model.json")
    path.write_text(json.dumps(json.loads(path.read_text(encoding="utf-8")) | {"format_version": 2}), encoding="utf-8")
    with pytest.raises(DataError, match="unsupported model format version 2"):
        classifier.load_model(path)


def test_fit_refuses_rows_or_names_that_disagree_with_the_matrix():
    X, y = np.random.default_rng(6).normal(size=(12, 2)), np.array([0, 1] * 6)
    with pytest.raises(DataError, match=r"X \(12, 2\) and y \(11,\) disagree"):
        classifier.fit(X, y[:11], ["a", "b"])
    with pytest.raises(DataError, match="feature names must match the matrix width"):
        classifier.fit(X, y, ["a", "b", "c"])


@pytest.mark.parametrize("field, value, cause", [
    ("rpa_class", 4, "rpa_class must be 1..3, got 4"),
    ("n_metastases", 0, "n_metastases must be >= 1, got 0"),
])
def test_a_clinical_value_out_of_range_exits_3_and_names_the_manifest(cohort, tmp_path, capsys, field, value,
                                                                      cause):
    manifest = json.loads((cohort / "manifest.json").read_text(encoding="utf-8"))
    manifest["patients"][0]["clinical"][field] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / "out"
    code, error = _refused(["km", "--manifest", str(path)], out, capsys)
    assert code == 3 and error == f"error: manifest {path}: {cause}", (code, error)
    assert not out.exists()


# ---------------------------------------------------------------------------
# library refusals and conventions that no command reaches


def _droi():
    image = VolumeImage(np.random.default_rng(7).normal(size=(3, 3, 3)))
    return discretize(image, RoiMask(np.ones((3, 3, 3), dtype=bool)), 4)


def _dataset(n: int) -> Dataset:
    return Dataset(set_id=1, feature_names=["f"], column_blocks=["clinical"], X=np.zeros((n, 1)),
                   y=np.array([0, 1] * (n // 2)), lesion_ids=[f"L{k}" for k in range(n)],
                   times=np.full(n, 50.0), events=np.zeros(n, dtype=bool))


@pytest.mark.parametrize("call, error, cause", [
    (lambda: mrmr_select(np.ones((1, 2)), [1], 1, ["a", "b"]), DataError, "selection needs >= 2 samples, got 1"),
    (lambda: mrmr_select(np.eye(3)[:, :2], [0, 1, 0], 1, ["a", "a"]), DataError,
     "feature names must be unique and match the matrix width"),
    (lambda: texture_features(_droi(), "glxm"), ConfigError, "unknown texture family 'glxm'"),
    (lambda: ExtractionConfig(n_bins=8.0), ConfigError, "n_bins must be an integer, got 8.0"),
    (lambda: shape_features(RoiMask(np.ones((2, 2, 2), dtype=bool)), (1.0, 0.0, 1.0)), DataError,
     "spacing must be three positive floats, got (1.0, 0.0, 1.0)"),
    (lambda: VolumeImage(np.ones((2, 2, 2)), ("a", 1, 1)), DataError,
     "spacing must be three finite positive floats, got ('a', 1, 1)"),
    (lambda: roc_curve([0.1, 0.2], [0, 1, 1]), DataError, "scores (2,) and labels (3,) disagree"),
    (lambda: kaplan_meier([10.0, 20.0], [True]), DataError, "times (2,) and events (1,) disagree"),
    (lambda: risk_split_report(_dataset(4), np.zeros(3), np.ones(3)), DataError,
     "out-of-fold scores do not cover the dataset"),
    (lambda: ImageSource().load(), DataError, "image source has neither in-memory data nor paths"),
    (lambda: synth_cohort(0, 1), ConfigError, "need at least 2 lesions, got 1"),
    (lambda: delta_features({"follow-up-mr-original-shape-Volume": 1.0},
                            {"Plan-mr-original-shape-Volume": 1.0, "Plan-mr-original-shape-Sphericity": 1.0}, 5),
     DataError, "planning vector has features missing from the follow-up vector"),
    # 256 bins one ulp wide: the top bin's center rounds to the maximum, so the window is the 45 maxima
    (lambda: white_stripe_stats(np.r_[np.full(55, 1.0), np.full(45, 1.0 + 256 * np.finfo(float).eps)]),
     DataError, "constant image: zero variance in the white-stripe window"),
], ids=["mrmr-1-sample", "mrmr-duplicate-names", "texture-glxm", "n_bins-8.0", "shape-zero-spacing",
        "volume-text-spacing", "roc-lengths", "km-lengths", "risk-split-scores", "image-source-empty",
        "synth-1-lesion", "delta-extra-planning-feature", "white-stripe-plateau"])
def test_a_library_refusal_names_its_cause(call, error, cause):
    with pytest.raises(error) as refused:
        call()
    assert cause in str(refused.value)


@pytest.mark.parametrize("fmt, asked, written", [("rawjson", "v.nii", "v.json"), ("nifti1", "v.json", "v.nii")])
def test_write_volume_gives_the_path_its_format_suffix(tmp_path, fmt, asked, written):
    image = VolumeImage(np.arange(24.0).reshape(2, 3, 4), (1.0, 2.0, 0.5))
    path = write_volume(image, tmp_path / asked, fmt)
    assert path == tmp_path / written and not (tmp_path / asked).exists()
    back = read_volume(path)
    assert np.array_equal(back.voxels, image.voxels) and back.spacing == image.spacing


def test_pearson_with_a_constant_label_is_zero():
    assert pearson([1.0, 2.0, 4.0], [5.0, 5.0, 5.0]) == 0.0
