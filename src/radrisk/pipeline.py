"""Glue between cohort records, feature extraction, and evaluation.

``extract_cohort`` normalizes and extracts every image of every lesion into a
feature store keyed by (lesion_id, role, date), one row per image in
``image_jobs`` order. One ``ExtractionConfig`` names both steps: its
``zscore`` and ``whitestripe`` fields the normalization, its ``n_bins`` and
``wavelet`` the features. ``normalize_volume`` computes each image's
normalization statistics over the whole volume, and extraction applies their
maps to the ROI's box only. A resumed extraction reuses the rows of an
earlier store and extracts only the images it lacks. ``build_datasets`` labels the
follow-ups once and returns one matrix-shaped dataset per requested feature
set, ready for cross-validation, its delta features computed against the
planning MRI as its matrix is written; ``build_dataset`` does the same for one set.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cohort import (
    BLOCK_TAGS,
    CLINICAL_FEATURE_NAMES,
    HORIZON_DAYS,
    KmPoint,
    MetastasisRecord,
    FeatureSetSpec,
    assemble,
    clinical_features,
    delta_rows,
    label_samples,
)
from .errors import ConfigError, DataError, NumericalError
from .features import ExtractionConfig, extract_all, feature_names
from .featurestore import ROLE_FOLLOWUP, ROLE_PLAN_CT, ROLE_PLAN_MR, FeatureStore
from .volume import VolumeImage, white_stripe_stats, zscore_stats

log = logging.getLogger(__name__)


def parallel_map(fn, items, threads: int = 1) -> list:
    """``[fn(item) for item in items]`` on up to ``threads`` threads. The results come in item
    order, and so does the error: it is that of the first item that raised."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def normalize_volume(img: VolumeImage, role: str, config: ExtractionConfig) -> tuple[tuple[float, float], ...]:
    """The intensity normalizations that ``config`` names for ``img``: z-score, then
    white-stripe on every role but the planning CT. Each step is a map
    ``(v - mu) / sigma``, its statistics taken over the whole volume as the
    step before left it. Only the statistics are computed here: the
    ``(mu, sigma)`` pairs are returned in order, and apply where voxels are read."""
    maps = ()
    if config.zscore:
        maps += (zscore_stats(img.voxels),)
    if config.whitestripe == "mr" and role != ROLE_PLAN_CT:
        maps += (white_stripe_stats(img.voxels, maps),)
    return maps


def image_jobs(records: list[MetastasisRecord]):
    """Every image of the cohort as (lesion_id, role, date_iso, source), in feature-table row order."""
    for rec in records:
        yield (rec.lesion_id, ROLE_PLAN_MR, rec.planning_date.isoformat(), rec.planning_mr)
        if rec.planning_ct is not None:
            yield (rec.lesion_id, ROLE_PLAN_CT, rec.planning_date.isoformat(), rec.planning_ct)
        for fu in rec.followups:
            yield (rec.lesion_id, ROLE_FOLLOWUP, fu.date.isoformat(), fu.source)


def extract_cohort(
    records: list[MetastasisRecord],
    config: ExtractionConfig = ExtractionConfig(),
    base_dir: Path | None = None,
    threads: int = 1,
    reuse: FeatureStore | None = None,
    failures: list[str] | None = None,
) -> FeatureStore:
    """Extract the full feature vector of every cohort image, one row per image in ``image_jobs`` order.

    ``reuse`` supports resumable extraction: a job whose (lesion, role, date)
    key it holds takes that row as it is, without loading the image; its rows
    of images not in ``records`` are dropped. A ``reuse`` with rows whose
    names are not ``feature_names(config)`` raises ``DataError``. When
    ``failures`` is given, per-image data and numerical errors are logged and
    collected there in job order instead of raised, and the failing rows are
    omitted. The result, the failures included, is deterministic and
    independent of ``threads``.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    names = feature_names(config)
    if reuse is not None and reuse.keys and reuse.names != names:
        raise DataError(f"inconsistent feature columns for {reuse.keys[0]}")
    jobs = list(image_jobs(records))

    def run(job):
        """The image's feature row, or its failure message when ``failures`` collects them."""
        lesion_id, role, date_iso, source = job
        if reuse is not None and job[:3] in reuse.index:
            return reuse.values[reuse.index[job[:3]]]
        try:
            img, mask = source.load(base_dir)
            return extract_all(img, mask, config, normalize_volume(img, role, config))
        except (DataError, NumericalError) as exc:
            message = f"[extract {lesion_id}/{role}/{date_iso}] {exc}"
            if failures is None:
                raise type(exc)(message) from exc
            return message

    done = []
    for job, result in zip(jobs, parallel_map(run, jobs, threads)):
        if isinstance(result, str):
            log.warning("%s", result)
            failures.append(result)
        else:
            done.append((job[:3], result))
    return FeatureStore(names, [key for key, _ in done], np.array([row for _, row in done]))


@dataclass
class Dataset:
    """Assembled per-sample matrix for one feature set."""

    set_id: int
    feature_names: list[str]
    column_blocks: list[str]  # the Table 1 block of each column
    X: np.ndarray
    y: np.ndarray  # 1 = HRM
    lesion_ids: list[str]
    times: np.ndarray  # days to event or censoring
    events: np.ndarray  # True = progression observed
    km_censored: list[KmPoint] = field(default_factory=list)
    excluded_lesions: list[str] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]


def _columns(matrix: np.ndarray, rows: np.ndarray, cols: list[int]) -> np.ndarray:
    """``matrix[rows][:, cols]`` for ascending ``cols``, as a row gather of one slice when they are a
    contiguous range."""
    if cols and cols[-1] - cols[0] == len(cols) - 1:
        return matrix[rows, cols[0] : cols[-1] + 1]
    return matrix[np.ix_(rows, cols)]


def _set_matrix(segments, matrix: dict, rows: dict, gap: np.ndarray) -> np.ndarray:
    """A set's C-ordered matrix, each of its ``assemble`` segments written in place: a block's columns
    of ``matrix[source]`` at its ``rows[source]``, and the delta block computed from the follow-up and
    planning-MR columns of the same rows, ``gap`` days apart."""
    X = np.empty((len(gap), sum(len(cols) for _, _, cols in segments)))
    end = 0
    for _, source, cols in segments:
        start, end = end, end + len(cols)
        if source == "delta":
            fu, plan = (_columns(matrix[block], rows[block], cols) for block in ("followup_mr", "planning_mr"))
            with np.errstate(invalid="ignore"):  # a non-finite value fails the set's finite check
                X[:, start:end] = delta_rows(fu, plan, gap)
        else:
            X[:, start:end] = _columns(matrix[source], rows[source], cols)
    return X


def build_dataset(
    records: list[MetastasisRecord],
    store: FeatureStore,
    spec: FeatureSetSpec,
    horizon_days: int = HORIZON_DAYS,
) -> Dataset:
    """Label follow-ups and assemble the feature matrix for one feature set (:func:`build_datasets`)."""
    return build_datasets(records, store, [spec], horizon_days)[0]


def build_datasets(
    records: list[MetastasisRecord], store: FeatureStore, specs: list[FeatureSetSpec],
    horizon_days: int = HORIZON_DAYS,
) -> list[Dataset]:
    """Label follow-ups once and assemble the feature matrix of each feature set, in ``specs`` order.

    The clinical block is computed once, over every labeled sample. A set writes the columns that
    ``assemble`` picks straight into its matrix, for every sample except, when it has the CT block, those
    of the lesions without planning-CT data (recorded as excluded); its delta columns are computed from
    those rows alone. Each set is checked on its own rows and columns; the
    first set that fails raises, and a non-finite value names the first sample, in sample order, and column.
    A set with a block for which the table has no columns, such as the wavelet block of a table extracted
    without wavelet, fails.
    """
    labeling = label_samples(records, horizon_days)
    samples = labeling.samples
    lesion_row = {rec.lesion_id: k for k, rec in enumerate(records)}
    lesion = np.array([lesion_row[s.lesion_id] for s in samples], dtype=np.intp)
    gap = np.array([s.gap_days for s in samples], dtype=np.float64)
    plan_keys = [(rec.lesion_id, rec.planning_date.isoformat()) for rec in records]
    rows = {
        "followup_mr": store.rows([(s.lesion_id, ROLE_FOLLOWUP, s.imaging_date.isoformat()) for s in samples]),
        "planning_mr": store.rows([(lid, ROLE_PLAN_MR, d) for lid, d in plan_keys])[lesion],
        "planning_ct": store.rows([(lid, ROLE_PLAN_CT, d) for lid, d in plan_keys])[lesion],
    }
    missing = (rows["followup_mr"] < 0) | (rows["planning_mr"] < 0)
    ct_less = dict.fromkeys(rec.lesion_id for rec in records if rec.planning_ct is None)

    clinical = np.array([list(clinical_features(records[k].clinical, s.gap_days).values())
                         for k, s in zip(lesion, samples)])
    # each block's matrix and each sample's row in it; an image block's matrix is the store's
    matrix = dict.fromkeys(rows, store.values) | {"clinical": clinical}
    at = rows | {"clinical": np.arange(len(samples))}

    datasets = []
    for spec in specs:
        excluded = ct_less if "planning_ct" in spec.blocks else {}
        # a CT-less lesion's CT row is -1, which reads the store's last row: its samples are never kept
        kept = np.flatnonzero([s.lesion_id not in excluded for s in samples])
        if not kept.size:
            raise DataError("no usable samples after labeling and exclusions")
        # an error names the first sample, in sample order, that has one
        bad_gap = (gap <= 0) & ("delta" in spec.blocks)
        no_ct = (rows["planning_ct"] < 0) & ("planning_ct" in spec.blocks)
        first_bad = kept[(missing | bad_gap | no_ct)[kept]][:1]
        if first_bad.size:
            sample = samples[first_bad[0]]
            if missing[first_bad[0]]:
                raise DataError(f"feature store is missing images for {sample.lesion_id}")
            if bad_gap[first_bad[0]]:
                raise DataError(f"elapsed days must be > 0, got {sample.gap_days}")
            # the sample's lesion has no planning-CT row
            raise DataError(f"[assemble {sample.lesion_id}/{sample.imaging_date}] "
                            f"feature set {spec.set_id} requires the planning_ct block")

        segments = assemble(spec, store.names)
        empty = [block for block, _, cols in segments if not cols]
        if empty:  # e.g. the wavelet block of a table extracted without wavelet
            wavelet = f"wavelet {store.settings.wavelet!r}" if store.settings else "no recorded wavelet"
            raise DataError(f"feature set {spec.set_id} has the {empty[0]} block, but the feature table "
                            f"({wavelet}) has no columns for it")
        X = _set_matrix(segments, matrix, {source: at[source][kept] for source in at}, gap[kept, None])
        names = [
            CLINICAL_FEATURE_NAMES[k] if source == "clinical" else f"{BLOCK_TAGS[source]}-{store.names[k]}"
            for _, source, cols in segments
            for k in cols
        ]
        if not np.isfinite(X).all():
            row, col = np.argwhere(~np.isfinite(X))[0]
            sample = samples[kept[row]]
            raise DataError(f"[assemble {sample.lesion_id}/{sample.imaging_date}] "
                            f"non-finite value {X[row, col]} in column {names[col]}")
        datasets.append(Dataset(
            set_id=spec.set_id,
            feature_names=names,
            column_blocks=[block for block, _, cols in segments for _ in cols],
            X=X,
            y=np.asarray([1 if samples[k].label == "HRM" else 0 for k in kept], dtype=np.int64),
            lesion_ids=[samples[k].lesion_id for k in kept],
            times=np.asarray([samples[k].days_to_event_or_censor for k in kept], dtype=np.float64),
            events=np.asarray([not samples[k].censored for k in kept], dtype=bool),
            km_censored=[p for p in labeling.km_censored if p.lesion_id not in excluded],
            excluded_lesions=list(excluded),
        ))
    return datasets
