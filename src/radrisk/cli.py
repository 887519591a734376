"""Command-line front-end for the risk-classification pipeline.

Sub-commands: synth, extract, select, train, evaluate, km, run. Every run is
seeded (defaults are fixed, never wall-clock), artifacts carry the resolved
configuration, and no artifact contains timestamps, so identical inputs yield
byte-identical outputs. Exit codes: 0 success, 2 config error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import classifier as clf
from .cohort import BLOCK_TITLES, HORIZON_DAYS, feature_set, load_manifest, label_samples, manifest_dict
from .errors import ConfigError, DataError, RadriskError
from .evaluation import (
    CvConfig,
    curve_csv,
    kaplan_meier,
    monte_carlo_cv,
    risk_split_report,
    roc_curve,
    select_features,
    write_risk_split,
)
from .features import ExtractionConfig, feature_names
from .featurestore import FeatureStore, read_features_csv, write_features_csv
from .pipeline import build_dataset, build_datasets, extract_cohort, image_jobs
from .selection import correlation_report
from .svgplot import km_plot, roc_plot
from .synth import EffectConfig, SynthConfig, synth_cohort
from .volume import VolumeImage, write_volume

log = logging.getLogger("radrisk")

ENV_OUT = "RADRISK_OUT"


def _default_out() -> str:
    return os.environ.get(ENV_OUT, "radrisk-out")


def _paths(manifest: str, out_dir: str | None) -> tuple[Path, Path]:
    """The manifest's path, checked to exist, and the output directory's. A command creates the directory
    (:func:`_made`) once its settings are checked and its manifest read, so neither leaves one behind."""
    manifest_path = Path(manifest)
    if not manifest_path.exists():
        raise ConfigError(f"manifest not found: {manifest_path}")
    return manifest_path, Path(out_dir or _default_out())


def _made(out: Path) -> Path:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from exc
    return out


def _parse_sets(text: str) -> tuple[int, ...]:
    out: list[int] = []
    bad = ConfigError(f"feature sets must be within 1..7, got {text!r}")
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part:
                a, b = (int(end) for end in part.split("-", 1))
                if not (1 <= a <= 7 and 1 <= b <= 7):  # before the range is expanded
                    raise bad
                if a > b:
                    raise ConfigError(f"feature set range {part!r} is reversed, write it as '{b}-{a}'")
                out.extend(range(a, b + 1))
            elif part:
                out.append(int(part))
    except ValueError as exc:
        raise ConfigError(f"cannot parse feature sets {text!r}: {exc}") from exc
    if not out or any(s not in range(1, 8) for s in out):
        raise bad
    return tuple(dict.fromkeys(out))


def _config_value(ctx: click.Context, param: click.Parameter, value, path: Path):
    """A config-file value converted by its option's click type, as if typed on the command line."""
    if value is None and param.default is None:
        return None
    if not isinstance(value, (str, int, float)):  # null (where the option needs a value), arrays, objects
        raise ConfigError(f"config file {path}: {param.name} must be a string or number, got {value!r}")
    try:
        return param.type.convert(str(value), param, ctx)
    except click.BadParameter as exc:
        raise ConfigError(f"config file {path}: {param.name}: {exc.format_message()}") from exc


def _merge_config(ctx: click.Context, config_path: str | None, flags: dict) -> tuple[dict, set]:
    """Config-file values fill in for flags the user left at their defaults; also the names set in either."""
    merged = dict(flags)
    given = {key for key in flags if ctx.get_parameter_source(key).name == "COMMANDLINE"}
    if config_path:
        p = Path(config_path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        if not p.is_file():
            raise ConfigError(f"config file {p} is not a file")
        try:
            file_cfg = json.loads(p.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {p}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {p} must be a JSON object")
        unknown = set(file_cfg) - set(flags)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        params = {param.name: param for param in ctx.command.params}
        for key, value in file_cfg.items():
            value = _config_value(ctx, params[key], value, p)
            if key not in given:
                merged[key] = value
        given |= file_cfg.keys()
    return merged, given


def _comment(config: dict) -> str:
    return "config: " + json.dumps(config, sort_keys=True)


def _write_json(path: Path, payload: dict, config: dict) -> None:
    path.write_text(json.dumps({"config": config, **payload}, indent=2) + "\n", encoding="utf-8")


@click.group()
@click.version_option(__version__)
def cli():
    """Radiomics + delta-radiomics risk classification pipeline."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# options that several commands share, each declared once


def _with_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return wrap


_MANIFEST = click.option("--manifest", required=True)
_OUT = click.option("--out", "out_dir", default=None)
_FEATURES = click.option("--features", "features_path", required=True)
_SET = click.option("--set", "set_id", type=click.IntRange(1, 7), default=7, show_default=True)
_HORIZON = click.option("--horizon", "--horizon-days", "horizon_days", type=click.IntRange(min=1),
                        default=HORIZON_DAYS, show_default=True)
_THREADS = click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
_DATASET_OPTIONS = [_MANIFEST, _FEATURES, _SET, _HORIZON]

_EXTRACTION_OPTIONS = [
    click.option("--ng", "n_bins", type=int, default=32, show_default=True),
    click.option("--wavelet", type=click.Choice(["haar", "coif1", "none"]), default="haar", show_default=True),
    click.option("--whitestripe", type=click.Choice(["mr", "none"]), default="mr", show_default=True),
    click.option("--zscore/--no-zscore", default=True, show_default=True),
]

_CLASSIFIER_OPTIONS = [
    click.option("--c", "-C", "c_value", type=float, default=1.0, show_default=True),
    click.option("--sensitivity-weight", type=float, default=2.0, show_default=True),
    click.option("--theta", type=float, default=0.0, show_default=True),
]

_COMMON_CV_OPTIONS = [
    click.option("--repeats", type=int, default=100, show_default=True),
    click.option("--test-frac", type=float, default=1.0 / 3.0, show_default=True),
    click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True),
    *_CLASSIFIER_OPTIONS,
    click.option("--per-samples", type=int, default=10, show_default=True, help="selection cap divisor"),
    click.option("--global-selection", is_flag=True, help="select once before CV (leaky; for comparison)"),
    _HORIZON,
    _THREADS,
]


def _classifier(values: dict) -> clf.ClassifierConfig:
    return clf.ClassifierConfig(C=values["c_value"], sensitivity_weight=values["sensitivity_weight"],
                                threshold=values["theta"])


def _cv_setup(manifest_path: Path, sets, values: dict, settings: ExtractionConfig | None):
    """The configuration of a CV run as its artifacts echo it, with the extraction ``settings`` of its
    table, if known, after the sets, then the CV and classifier configs that the parameter ``values``
    select. A command builds these after any table read (:func:`_read_table`) and before its manifest
    read, extraction or CV, so a bad setting exits 2 before that work is done."""
    cv = CvConfig(repeats=values["repeats"], test_frac=values["test_frac"], seed=values["seed"],
                  threads=values["threads"], per_samples=values["per_samples"],
                  per_fold=not values["global_selection"])
    classifier = _classifier(values)
    if not cv.per_fold:
        log.warning("--global-selection selects the features on every sample, test folds included: "
                    "the CV AUC is optimistic (README, 'Leakage')")
    echo = {
        "manifest": str(manifest_path),
        "sets": list(sets),
        **(asdict(settings) if settings else {}),
        "per_samples": cv.per_samples,
        "per_fold": cv.per_fold,
        "C": classifier.C,
        "sensitivity_weight": classifier.sensitivity_weight,
        "threshold": classifier.threshold,
        "repeats": cv.repeats,
        "test_frac": cv.test_frac,
        "seed": cv.seed,
        "horizon_days": values["horizon_days"],
    }
    return echo, cv, classifier


def _read_table(path, given: dict) -> FeatureStore:
    """The table at ``path``; a ``given`` extraction setting that differs from the one it records exits 2."""
    store = read_features_csv(path)
    for key, value in given.items():
        recorded = getattr(store.settings, key, value)  # a table that records none disagrees with nothing
        if value != recorded:
            raise ConfigError(f"{key} {value!r} disagrees with {path}, extracted with {key} {recorded!r}")
    return store


# ---------------------------------------------------------------------------
# synth


@cli.command()
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--lesions", type=int, default=40, show_default=True)
@click.option("--out", "out_dir", default=None, help=f"output dir (default ${ENV_OUT} or ./radrisk-out)")
@click.option("--hrm-fraction", type=float, default=0.10, show_default=True)
@click.option("--growth", type=float, default=0.5, show_default=True)
@click.option("--texture", type=float, default=2.0, show_default=True)
@click.option("--ct-missing", type=float, default=0.0, show_default=True)
@click.option("--followups", default="2,2", show_default=True, help="min,max follow-ups per lesion")
@click.option("--format", "fmt", type=click.Choice(["rawjson", "nifti1"]), default="rawjson", show_default=True)
def synth(seed, lesions, out_dir, hrm_fraction, growth, texture, ct_missing, followups, fmt):
    """Generate a synthetic cohort and write images + manifest to disk."""
    out = Path(out_dir or _default_out())
    try:
        fu_min, fu_max = (int(x) for x in followups.split(","))
    except ValueError as exc:
        raise ConfigError(f"--followups must be 'min,max', got {followups!r}") from exc
    records = synth_cohort(
        seed,
        lesions,
        EffectConfig(growth=growth, texture=texture),
        SynthConfig(hrm_fraction=hrm_fraction, followups=(fu_min, fu_max), ct_missing_fraction=ct_missing),
    )
    images = _made(out / "images")
    ext = ".json" if fmt == "rawjson" else ".nii"
    source_paths: dict = {}
    for lesion_id, role, date, source in image_jobs(records):
        stem = f"{lesion_id}_{role}_{date}"
        img_path = images / f"{stem}_img{ext}"
        mask_path = images / f"{stem}_mask{ext}"
        vol, mask = source.load()
        write_volume(vol, img_path, fmt)
        write_volume(VolumeImage(mask.voxels.astype(np.float64), vol.spacing, vol.modality), mask_path, fmt)
        source_paths[id(source)] = {
            "image": str(img_path.relative_to(out)),
            "mask": str(mask_path.relative_to(out)),
        }
    manifest = manifest_dict(records, source_paths)
    manifest["synth"] = {
        "seed": seed,
        "lesions": lesions,
        "hrm_fraction": hrm_fraction,
        "growth": growth,
        "texture": texture,
        "followups": [fu_min, fu_max],
        "ct_missing": ct_missing,
        "format": fmt,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    click.echo(f"wrote {len(records)} lesions to {out / 'manifest.json'}")


# ---------------------------------------------------------------------------
# extract


@cli.command()
@_MANIFEST
@_OUT
@_with_options(_EXTRACTION_OPTIONS)
@click.option("--force", is_flag=True, help="recompute rows that already exist")
@_THREADS
def extract(manifest, out_dir, force, threads, **values):
    """Extract per-image radiomic features into features.csv (+ its binary sidecar and features.json)."""
    manifest_path, out = _paths(manifest, out_dir)
    config = ExtractionConfig(**values)  # before the manifest read, so a bad setting exits 2 first
    records = load_manifest(manifest_path)

    csv_path = _made(out) / "features.csv"
    echo = {"manifest": str(manifest_path), **asdict(config)}
    reuse = _resumable_rows(csv_path, config) if csv_path.exists() and not force else None

    failures: list[str] = []
    store = extract_cohort(
        records,
        config,
        base_dir=manifest_path.parent,
        threads=threads,
        reuse=reuse,
        failures=failures,
    )
    write_features_csv(csv_path, store, _comment(echo))
    _write_json(out / "features.json", {"format_version": 1, "rows": len(store), "failures": failures}, echo)
    click.echo(f"wrote {len(store)} rows to {csv_path}" + (f" ({len(failures)} failed)" if failures else ""))
    if failures:
        raise DataError(f"{len(failures)} image(s) failed extraction: {failures[:3]}")


def _resumable_rows(path: Path, config: ExtractionConfig) -> FeatureStore | None:
    """The rows of an earlier extraction into ``path``, or None when every image must be re-extracted:
    the table is unreadable, it does not record ``config``, or its columns are not the ones ``config``
    makes. A table without rows has nothing to check."""
    try:
        store = read_features_csv(path)
    except DataError as exc:
        log.warning("%s is unreadable, re-extracting every image: %s", path, exc)
        return None
    if store.settings is None:  # featurestore has logged why
        log.warning("%s records no extraction settings, re-extracting every image", path)
        return None
    if store.settings != config:
        log.warning("%s was extracted with other settings, re-extracting every image: found %s, now %s",
                    path, store.settings, config)
        return None
    names = feature_names(config)
    if store.keys and store.names != names:
        log.warning("%s does not have the %d feature columns of these settings, re-extracting every image",
                    path, len(names))
        return None
    return store


# ---------------------------------------------------------------------------
# shared pipeline steps


@contextmanager
def _joining(table, manifest_path):
    """A ``DataError`` raised inside, as in building a dataset, names the two files whose rows it joins."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"feature CSV {table}, manifest {manifest_path}: {exc}") from exc


def _dataset(manifest_path, features_path, store: FeatureStore, set_id, horizon_days):
    """Set ``set_id`` of ``store``, the table read from ``features_path``, on the manifest's samples."""
    records = load_manifest(manifest_path)
    with _joining(features_path, manifest_path):
        return build_dataset(records, store, feature_set(set_id), horizon_days)


def _write_correlation_tables(dataset, out: Path, comment: str) -> None:
    """One ``table2_<block>.csv`` per Table 1 block of the set: its 10 columns by |r| with the
    label, ties broken by name."""
    r = correlation_report(dataset.X, dataset.y).tolist()
    names, blocks = dataset.feature_names, dataset.column_blocks
    ranked = sorted(range(len(names)), key=lambda k: (-abs(r[k]), names[k]))
    for block in dict.fromkeys(blocks):
        lines = [f"# {comment}", "rank,feature,r"]
        ranks = enumerate([k for k in ranked if blocks[k] == block][:10], start=1)
        lines += [f"{rank},{names[k]},{r[k]!r}" for rank, k in ranks]
        (out / f"table2_{block}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# select


@cli.command()
@_with_options(_DATASET_OPTIONS)
@_OUT
def select(manifest, features_path, set_id, horizon_days, out_dir):
    """One-shot MRMR selection on the full assembled matrix (+ ranked correlations)."""
    manifest_path, out = _paths(manifest, out_dir)
    store = _read_table(features_path, {})
    per_samples = CvConfig.per_samples
    settings = asdict(store.settings) if store.settings else {}
    config = {"manifest": str(manifest_path), "sets": [set_id], **settings, "per_samples": per_samples,
              "horizon_days": horizon_days}
    dataset = _dataset(manifest_path, features_path, store, set_id, horizon_days)
    result = select_features(dataset, per_samples)
    payload = {"set_id": set_id, "n_samples": dataset.n_samples, **result.to_dict()}
    _write_json(_made(out) / "selection.json", payload, config)
    _write_correlation_tables(dataset, out, _comment(config))
    click.echo(f"selected {len(result.selected)}/{result.cap} features from set {set_id}")


# ---------------------------------------------------------------------------
# train


@cli.command()
@_with_options(_DATASET_OPTIONS)
@_with_options(_CLASSIFIER_OPTIONS)
@_OUT
def train(manifest, features_path, set_id, horizon_days, out_dir, **values):
    """Select features and fit one model on the whole cohort."""
    manifest_path, out = _paths(manifest, out_dir)
    cfg = _classifier(values)
    dataset = _dataset(manifest_path, features_path, read_features_csv(features_path), set_id, horizon_days)
    selection = select_features(dataset)
    cols = selection.indices
    model = clf.fit(dataset.X[:, cols], dataset.y, selection.selected, cfg)
    model.save(_made(out) / "model.json")
    click.echo(f"trained on {dataset.n_samples} samples, {len(cols)} features -> {out / 'model.json'}")


# ---------------------------------------------------------------------------
# evaluate


@cli.command()
@_MANIFEST
@_FEATURES
@_SET
@_with_options(_COMMON_CV_OPTIONS)
@_OUT
def evaluate(manifest, features_path, set_id, out_dir, **values):
    """Monte-Carlo cross-validation of one feature set."""
    manifest_path, out = _paths(manifest, out_dir)
    store = _read_table(features_path, {})
    config, *cv_configs = _cv_setup(manifest_path, (set_id,), values, store.settings)
    dataset = _dataset(manifest_path, features_path, store, set_id, values["horizon_days"])
    _made(out)
    report = monte_carlo_cv(dataset, *cv_configs)
    _write_json(out / "cv_report.json", report.to_dict(), config)
    scored = report.oof_counts > 0  # every fold holds both classes, so the scored samples do too
    roc = roc_curve(report.oof_scores[scored], dataset.y[scored])
    (out / "roc_oof.svg").write_text(
        roc_plot(roc.fpr, roc.tpr, roc.auc, f"set {set_id} out-of-fold ROC", _comment(config)), encoding="utf-8"
    )
    click.echo(f"set {set_id}: mean AUC {report.mean_auc:.3f} (std {report.std_auc:.3f}) over {values['repeats']} repeats")


# ---------------------------------------------------------------------------
# km


@cli.command()
@_MANIFEST
@_HORIZON
@_OUT
def km(manifest, horizon_days, out_dir):
    """Cohort-level freedom-from-progression curve (no features needed)."""
    manifest_path, out = _paths(manifest, out_dir)
    records = load_manifest(manifest_path)
    labeling = label_samples(records, horizon_days)
    times = [s.days_to_event_or_censor for s in labeling.samples] + [p.days for p in labeling.km_censored]
    events = [not s.censored for s in labeling.samples] + [False] * len(labeling.km_censored)
    curve = kaplan_meier(times, events)
    comment = _comment({"manifest": str(manifest_path), "horizon_days": horizon_days})
    (_made(out) / "km_cohort.svg").write_text(km_plot([("cohort", "#3060c0", curve, False)],
                                                      "freedom from progression", comment), encoding="utf-8")
    (out / "km_cohort.csv").write_text(f"# {comment}\n" + curve_csv(curve), encoding="utf-8")
    median = "not reached" if curve.median is None else f"{curve.median:.0f} days"
    click.echo(f"cohort KM over {curve.n} samples, median {median}")


# ---------------------------------------------------------------------------
# run


@cli.command()
@_MANIFEST
@click.option("--features", "features_path", default=None, help="existing features.csv (else auto-extract)")
@click.option("--sets", default="7", show_default=True, help="e.g. '1-7' or '1,3,7'")
@_with_options(_EXTRACTION_OPTIONS)
@_with_options(_COMMON_CV_OPTIONS)
@click.option("--config", "config_path", default=None, help="JSON config file (flags win)")
@_OUT
@click.pass_context
def run(ctx, config_path, **params):
    """Full pipeline: extract (if needed), CV per feature set, risk-split report."""
    merged, given = _merge_config(ctx, config_path, params)
    set_ids = _parse_sets(merged["sets"])
    manifest_path, out = _paths(merged["manifest"], merged["out_dir"])
    extraction = ExtractionConfig(**{f.name: merged[f.name] for f in fields(ExtractionConfig)})
    specs = [feature_set(set_id) for set_id in set_ids]
    settings = extraction
    if merged["features_path"]:
        store = _read_table(merged["features_path"], {k: v for k, v in asdict(extraction).items() if k in given})
        settings = store.settings
    elif extraction.wavelet == "none":
        for spec in specs:
            if "wavelet" in spec.blocks:
                raise ConfigError(f"feature set {spec.set_id} has the wavelet block, which wavelet 'none' "
                                  "does not extract")
    config, *cv_configs = _cv_setup(manifest_path, set_ids, merged, settings)
    comment = _comment(config)

    records = load_manifest(manifest_path)
    if not merged["features_path"]:
        _made(out)  # before the extraction, so that a bad --out fails first
        store = extract_cohort(records, extraction, base_dir=manifest_path.parent, threads=merged["threads"])
        write_features_csv(out / "features.csv", store, comment)

    with _joining(merged["features_path"] or out / "features.csv", manifest_path):
        datasets = dict(zip(set_ids, build_datasets(records, store, specs, merged["horizon_days"])))
    del store  # the sets hold every value that the rest of the run reads
    _made(out)
    reports = {}
    for set_id, dataset in datasets.items():
        report = reports[set_id] = monte_carlo_cv(dataset, *cv_configs)
        click.echo(f"set {set_id}: mean AUC {report.mean_auc:.3f} (std {report.std_auc:.3f})")

    _write_table1(out, reports, comment)
    top_set = max(set_ids)
    _write_correlation_tables(datasets[top_set], out, comment)
    top_report = reports[top_set]
    split = risk_split_report(datasets[top_set], top_report.oof_scores, top_report.oof_counts,
                              config["threshold"])
    write_risk_split(split, out, comment)

    payload = {
        "sets": {str(set_id): rep.summary() for set_id, rep in reports.items()},
        "risk_split": {"set_id": top_set, **split.summary(), "summary": split.summary_lines()},
        "excluded_lesions": {str(s): datasets[s].excluded_lesions for s in set_ids},
    }
    _write_json(out / "report.json", payload, config)
    for line in split.summary_lines():
        click.echo(line)


def _write_table1(out: Path, reports: dict, comment: str) -> None:
    lines = [f"# {comment}"]
    lines.append(",".join(["set", *BLOCK_TITLES, "mean_auc", "std_auc", "pooled_auc"]))
    for set_id, rep in reports.items():
        blocks = feature_set(set_id).blocks
        lines.append(
            f"Set {set_id}," + ",".join("x" if block in blocks else "" for block in BLOCK_TITLES)
            + f",{rep.mean_auc!r},{rep.std_auc!r},{rep.pooled_auc!r}"
        )
    (out / "table1.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # transposed text rendering: blocks as rows, sets as columns
    width = 36
    text = [" " * width + "".join(f"Set {c:<4}" for c in reports)]
    for block, title in BLOCK_TITLES.items():
        row = title.ljust(width)
        for set_id in reports:
            row += ("x" if block in feature_set(set_id).blocks else " ").ljust(8)
        text.append(row)
    row = "AUC score".ljust(width)
    for rep in reports.values():
        row += f"{rep.mean_auc:.2f}".ljust(8)
    text.append(row)
    (out / "table1.txt").write_text("\n".join(text) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        return 130
    except click.exceptions.ClickException as exc:
        exc.show()
        return 2
    except RadriskError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
