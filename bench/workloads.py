"""The three benchmark workloads: seeded set-up, the command, output checks.

``extract-small``  ``radrisk extract`` on a synthetic 14^3 RAWJSON cohort.
                   Tiny ROIs: per-call Python overhead, mostly in texture.
``extract-large``  the same command on 128x128x64 NIfTI volumes with
                   ~11k-voxel ROIs: shape diameters, wavelet, read, normalize.
``cv-planted``     ``radrisk run --sets 1,7`` on the features the library
                   extracts from the 150-lesion planted cohort: MRMR, DCA fit.

Each set-up writes its inputs under one directory and returns a JSON-ready
``info`` dict; the measured command reads only those files. An operation is
an image (extract workloads) or one CV repeat (cv-planted). ``check`` returns
how many operations of one invocation failed, why, and the facts that
``check_run`` needs to check the whole run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from radrisk.cli import main as cli_main
from radrisk.volume import VolumeImage, write_volume

from layers import CV, EXTRACT

FEATURES_PER_IMAGE = 770  # 98 original + 8 wavelet subbands x 84
KEY_COLUMNS = 3  # lesion_id, role, date

SMALL_LESIONS = 10  # x 4 images (planning MR, planning CT, 2 follow-ups)

LARGE_DIMS = (128, 128, 64)
LARGE_SPACING = (0.75, 0.75, 1.5)  # exact in float32, so the NIfTI header round-trips
LARGE_RADII = (16.0, 16.0, 10.3)  # voxels: an ~11k-voxel ellipsoid
LARGE_IMAGES = (("planning_mr", "MR"), ("planning_ct", "CT"), ("followup", "MR"))

# criterion 8's planted cohort (tests/test_acceptance.py): its seed, 150 lesions,
# hrm 0.10, growth 0.5, texture 2.0. The cohort and the CV splits are fixed and
# do not depend on --seed: the DCA work of a run varies too much with either.
# Cohorts drawn from other seeds differ by ~20% in how many DCA fits run to
# max_epochs, and the fit work of three invocations drawn from ten seeds'
# splits had a quartile spread of 0.29 of its median.
PLANTED_COHORT_SEED = 20260808
PLANTED_LESIONS = 150
# Set 1 (12 clinical columns, no signal: some DCA fits stop at max_epochs) and
# set 7 (3092 columns with wavelets: the widest MRMR, fits that converge)
# cover every layer of `radrisk run`; sets 2-6 would only repeat them.
CV_SETS = (1, 7)
CV_REPEATS = 5  # per set and invocation; invocation k of a run draws its splits from seed k
CV_MIN_INVOCATIONS = 3  # the AUC checks pool >= 15 repeats per set: ~1 split draw in 800 would fail them
AUC_SET7_MIN = 0.95
AUC_SET1_MAX = 0.65
LOGRANK_P_MAX = 0.01


def quiet_cli(argv: list[str]) -> int:
    """Run the radrisk CLI in-process with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def _manifest_jobs(manifest: dict) -> list[list[str]]:
    """(lesion_id, role, date) of every image, in the manifest's order."""
    jobs = []
    for patient in manifest["patients"]:
        for lesion in patient["lesions"]:
            lid, plan = lesion["lesion_id"], lesion["planning_date"]
            jobs.append([lid, "planning_mr", plan])
            if lesion.get("planning_ct"):
                jobs.append([lid, "planning_ct", plan])
            jobs.extend([lid, "followup", fu["date"]] for fu in lesion["followups"])
    return jobs


def _synth(directory: Path, seed: int, lesions: int, *extra: str) -> dict:
    code = quiet_cli(["synth", "--seed", str(seed), "--lesions", str(lesions),
                      "--out", str(directory), *extra])
    if code != 0:
        raise RuntimeError(f"radrisk synth exited {code}")
    manifest = json.loads((directory / "manifest.json").read_text())
    return {"manifest": "manifest.json", "images": _manifest_jobs(manifest)}


def _read_rows(csv_path: Path) -> tuple[list[str], dict[tuple, list[str]]]:
    with csv_path.open(newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    return header, {tuple(r[:KEY_COLUMNS]): r for r in body}


def _check_extract(out: Path, info: dict, code: int, volume_of=None) -> tuple[int, list[str]]:
    images = [tuple(k) for k in info["images"]]
    if code != 0:
        return len(images), [f"radrisk extract exited {code}"]
    header, rows = _read_rows(out / "features.csv")
    problems = []
    names = header[KEY_COLUMNS:]
    if len(names) != FEATURES_PER_IMAGE or len(set(names)) != len(names):
        problems.append(f"header has {len(names)} feature columns, want {FEATURES_PER_IMAGE} distinct")
        return len(images), problems
    sidecar = json.loads((out / "features.json").read_text())
    if sidecar["failures"]:
        problems.append(f"extraction reported failures: {sidecar['failures'][:3]}")
    volume_col = names.index("original-shape-Volume") + KEY_COLUMNS
    failed = 0
    for key in images:
        row = rows.get(key)
        if row is None or len(row) != len(header):
            problems.append(f"{key}: row missing or of the wrong width")
            failed += 1
            continue
        values = [float(v) for v in row[KEY_COLUMNS:]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{key}: non-finite feature value")
            failed += 1
            continue
        if volume_of is not None:
            want, got = volume_of(key), float(row[volume_col])
            if not math.isclose(got, want, rel_tol=1e-9):
                problems.append(f"{key}: original-shape-Volume {got!r} != {want!r}")
                failed += 1
    return failed, problems


class _Extract:
    """``radrisk extract --force --wavelet haar --ng 32`` on the set-up's manifest."""

    op = "images"
    op_layer = EXTRACT
    setups = 3
    min_invocations = 3  # so that the median absorbs one slow invocation

    def argv(self, directory: Path, info: dict, out: Path, seed: int, run_id: int) -> list[str]:
        return ["extract", "--manifest", str(directory / info["manifest"]), "--out", str(out),
                "--force", "--wavelet", "haar", "--ng", "32", "--threads", "1"]

    def ops(self, info: dict) -> int:
        return len(info["images"])

    def check(self, directory, info, out, code, tracer, run_id):
        return (*_check_extract(out, info, code), {})

    def check_run(self, invocations) -> tuple[int, list[str]]:
        return 0, []


class ExtractSmall(_Extract):
    name = "extract-small"

    def setup(self, directory: Path, seed: int) -> dict:
        info = _synth(directory, seed, SMALL_LESIONS)
        info["load"] = {"lesions": SMALL_LESIONS, "images": len(info["images"]),
                        "dims": [14, 14, 14], "format": "rawjson"}
        return info


def _ellipsoid_case(rng, modality: str):
    center = [d / 2.0 - 0.5 + rng.uniform(-2.0, 2.0) for d in LARGE_DIMS]
    radii = [r * rng.uniform(0.995, 1.005) for r in LARGE_RADII]
    axes = np.ogrid[tuple(slice(0, d) for d in LARGE_DIMS)]
    q = sum(((g - c) / r) ** 2 for g, c, r in zip(axes, center, radii))
    mask = q <= 1.0
    if modality == "MR":
        img = np.where(axes[0] < int(0.4 * LARGE_DIMS[0]), 45.0, 75.0) + rng.normal(0.0, 5.0, LARGE_DIMS)
        img[mask] = 95.0 + 8.0 * (1.0 - q[mask]) + rng.normal(0.0, 8.0, int(mask.sum()))
    else:
        img = 35.0 + rng.normal(0.0, 6.0, LARGE_DIMS)
        img[mask] = 55.0 + 4.0 * (1.0 - q[mask]) + rng.normal(0.0, 5.0, int(mask.sum()))
    return img, mask


class ExtractLarge(_Extract):
    name = "extract-large"
    # One invocation (3 images, ~10 s) outlasts the window. Three would add
    # ~20 s to each of the benchmark's runs, which must fit a fixed time budget.
    min_invocations = 1

    def setup(self, directory: Path, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        (directory / "images").mkdir(parents=True)
        refs, roi_voxels = {}, {}
        for role, modality in LARGE_IMAGES:
            img, mask = _ellipsoid_case(rng, modality)
            refs[role] = {"image": f"images/{role}_img.nii", "mask": f"images/{role}_mask.nii"}
            write_volume(VolumeImage(img, LARGE_SPACING, modality), directory / refs[role]["image"], "nifti1")
            write_volume(VolumeImage(mask.astype(np.float64), LARGE_SPACING, modality),
                         directory / refs[role]["mask"], "nifti1")
            roi_voxels[role] = int(mask.sum())
        lesion = {
            "lesion_id": "B0001-L1",
            "planning_date": "2010-01-04",
            "planning_mr": refs["planning_mr"],
            "planning_ct": refs["planning_ct"],
            "followups": [{"date": "2010-04-05", **refs["followup"]}],
            "event_date": None,
            "censor_date": "2010-12-01",
        }
        clinical = {"rpa_class": 2, "eqd": 30.0, "n_metastases": 1, "age": 60.0, "sex": 0,
                    "karnofsky": 80, "primary_site": "lung", "extracranial": 0}
        manifest = {"format_version": 1,
                    "patients": [{"patient_id": "B0001", "clinical": clinical, "lesions": [lesion]}]}
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        return {
            "manifest": "manifest.json",
            "images": _manifest_jobs(manifest),
            "roi_voxels": roi_voxels,
            "load": {"images": len(LARGE_IMAGES), "dims": list(LARGE_DIMS), "spacing": list(LARGE_SPACING),
                     "roi_voxels": roi_voxels, "format": "nifti1"},
        }

    def check(self, directory, info, out, code, tracer, run_id):
        voxel_volume = LARGE_SPACING[0] * LARGE_SPACING[1] * LARGE_SPACING[2]
        return (*_check_extract(out, info, code,
                                volume_of=lambda key: info["roi_voxels"][key[1]] * voxel_volume), {})


class CvPlanted:
    name = "cv-planted"
    op = "cv_repeats"
    op_layer = CV
    setups = 1  # one set-up extracts 600 images; several would not fit in the run
    min_invocations = CV_MIN_INVOCATIONS

    def setup(self, directory: Path, seed: int) -> dict:
        info = _synth(directory, PLANTED_COHORT_SEED, PLANTED_LESIONS, "--hrm-fraction", "0.10",
                      "--growth", "0.5", "--texture", "2.0")
        code = quiet_cli(["extract", "--manifest", str(directory / info["manifest"]), "--out", str(directory),
                          "--ng", "32", "--wavelet", "haar", "--threads", "1"])
        if code != 0:
            raise RuntimeError(f"radrisk extract exited {code}")
        info["features"] = "features.csv"
        info["load"] = {"lesions": PLANTED_LESIONS, "cohort_seed": PLANTED_COHORT_SEED,
                        "cv_seeds": "invocation index", "images": len(info["images"]),
                        "repeats_per_set": CV_REPEATS, "sets": list(CV_SETS)}
        return info

    def argv(self, directory: Path, info: dict, out: Path, seed: int, run_id: int) -> list[str]:
        return ["run", "--manifest", str(directory / info["manifest"]),
                "--features", str(directory / info["features"]), "--sets", ",".join(map(str, CV_SETS)),
                "--repeats", str(CV_REPEATS), "--seed", str(run_id), "--threads", "1",
                "--out", str(out)]

    def ops(self, info: dict) -> int:
        return CV_REPEATS * len(CV_SETS)

    def check(self, directory, info, out, code, tracer, run_id):
        """Per invocation: exit code, repeats, straddling, log-rank p. The AUCs go to ``check_run``."""
        if code != 0:
            return self.ops(info), [f"radrisk run exited {code}"], {}
        report = json.loads((out / "report.json").read_text())
        failed_sets: set[int] = set()
        problems = []
        straddled = 0
        for set_id in CV_SETS:
            key = f"{CV}.set{set_id}"
            if tracer.counter(run_id, f"{key}.repeats") != CV_REPEATS:
                failed_sets.add(set_id)
                problems.append(f"set {set_id}: not {CV_REPEATS} repeats")
            straddled += int(tracer.counter(run_id, f"{key}.straddled_repeats"))
        p = report["risk_split"]["logrank_p"]
        if p is None or p >= LOGRANK_P_MAX:
            failed_sets.add(max(CV_SETS))
            problems.append(f"risk-split log-rank p {p} not < {LOGRANK_P_MAX}")
        if straddled:
            problems.append(f"{straddled} repeat(s) with lesions straddling train and test")
        failed = min(self.ops(info), CV_REPEATS * len(failed_sets) + straddled)
        return failed, problems, {"mean_auc": {s: report["sets"][str(s)]["mean_auc"] for s in CV_SETS}}

    def check_run(self, invocations) -> tuple[int, list[str]]:
        """The AUC checks, over the repeats of every invocation of the run."""
        ran = [inv for inv in invocations if inv["exit_code"] == 0]
        pooled = {s: sum(inv["facts"]["mean_auc"][s] for inv in ran) / len(ran) if ran else math.nan
                  for s in CV_SETS}
        failed_sets, problems = set(), []
        if not pooled[7] >= AUC_SET7_MIN:
            failed_sets.add(7)
            problems.append(f"set 7 mean AUC {pooled[7]:.4f} < {AUC_SET7_MIN}")
        if not pooled[1] <= AUC_SET1_MAX:
            failed_sets.add(1)
            problems.append(f"set 1 mean AUC {pooled[1]:.4f} > {AUC_SET1_MAX}")
        return CV_REPEATS * len(failed_sets) * len(ran), problems


WORKLOADS = {w.name: w for w in (ExtractSmall(), ExtractLarge(), CvPlanted())}
