"""Glue between cohort records, feature extraction, and evaluation.

``extract_cohort`` normalizes and extracts every image of every lesion into a
feature store keyed by (lesion_id, role, date). ``build_dataset`` labels the
follow-ups, computes delta features against the planning MRI, assembles the
requested feature set, and returns a matrix-shaped dataset ready for
cross-validation.
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
    KmPoint,
    MetastasisRecord,
    FeatureSetSpec,
    assemble,
    clinical_features,
    delta_rows,
    label_samples,
)
from .errors import ConfigError, DataError
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


@dataclass(frozen=True)
class NormalizationConfig:
    zscore: bool = True
    whitestripe: str = "mr"  # "mr" = the manifest's MR roles (planning MR, follow-up), "none" = disabled

    def __post_init__(self):
        if not isinstance(self.zscore, bool):
            raise ConfigError(f"zscore must be a bool, got {self.zscore!r}")
        if self.whitestripe not in ("mr", "none"):
            raise ConfigError(f"whitestripe must be 'mr' or 'none', got {self.whitestripe!r}")


def normalize_volume(img: VolumeImage, role: str, cfg: NormalizationConfig) -> VolumeImage:
    """Apply the configured intensity normalizations: z-score, then white-stripe
    on every role but the planning CT. Each step is ``(v - mu) / sigma``, its
    statistics taken over the whole volume as the step before left it."""
    v = img.voxels
    if cfg.zscore:
        mu, sigma = zscore_stats(v.ravel())
        v = (v - mu) / sigma
    if cfg.whitestripe == "mr" and role != ROLE_PLAN_CT:
        mu, sigma = white_stripe_stats(v.ravel())
        v = (v - mu) / sigma
    return VolumeImage(v, img.spacing, img.modality)


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
    extraction: ExtractionConfig = ExtractionConfig(),
    normalization: NormalizationConfig = NormalizationConfig(),
    base_dir: Path | None = None,
    threads: int = 1,
    skip_keys: set | None = None,
    failures: list[str] | None = None,
) -> FeatureStore:
    """Extract the full feature vector of every cohort image.

    ``skip_keys`` supports resumable extraction: jobs whose (lesion, role,
    date) key is listed are not recomputed. When ``failures`` is given,
    per-image errors are logged and collected there in job order instead of
    raised, and the failing rows are omitted. The result, the failures
    included, is deterministic and independent of ``threads``.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    jobs = [job for job in image_jobs(records) if not (skip_keys and job[:3] in skip_keys)]

    def run(job):
        """The image's feature row, or its failure message when ``failures`` collects them."""
        lesion_id, role, date_iso, source = job
        try:
            img, mask = source.load(base_dir)
            img = normalize_volume(img, role, normalization)
            return extract_all(img, mask, extraction)
        except DataError as exc:
            message = f"[extract {lesion_id}/{role}/{date_iso}] {exc}"
            if failures is None:
                raise DataError(message) from exc
            return message

    done = []
    for job, result in zip(jobs, parallel_map(run, jobs, threads)):
        if isinstance(result, str):
            log.warning("%s", result)
            failures.append(result)
        else:
            done.append((job[:3], result))
    return FeatureStore(feature_names(extraction), [key for key, _ in done], np.array([row for _, row in done]))


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


def build_dataset(
    records: list[MetastasisRecord],
    store: FeatureStore,
    spec: FeatureSetSpec,
    horizon_days: int = 100,
) -> Dataset:
    """Label follow-ups and assemble the feature matrix for one feature set.

    Lesions without planning-CT data are excluded (with a record of the
    exclusion) when the set requires the CT block. Each block is gathered
    from the store's matrix by row, and the set's columns are the segments
    that ``assemble`` picks from those blocks; a column's Table 1 block is
    that of its segment. A non-finite value in the assembled matrix is a
    ``DataError`` that names the first sample, in sample order, and column
    that hold one.
    """
    labeling = label_samples(records, horizon_days)

    excluded = []
    if "planning_ct" in spec.blocks:
        excluded = [rec.lesion_id for rec in records if rec.planning_ct is None]
    excluded_set = set(excluded)
    kept = [s for s in labeling.samples if s.lesion_id not in excluded_set]
    if not kept:
        raise DataError("no usable samples after labeling and exclusions")

    lesion_row = {rec.lesion_id: k for k, rec in enumerate(records)}
    lesion = np.array([lesion_row[s.lesion_id] for s in kept], dtype=np.intp)
    gap = np.array([s.gap_days for s in kept], dtype=np.float64)
    plan_keys = [(rec.lesion_id, rec.planning_date.isoformat()) for rec in records]
    rows = {
        "followup_mr": store.rows([(s.lesion_id, ROLE_FOLLOWUP, s.imaging_date.isoformat()) for s in kept]),
        "planning_mr": store.rows([(lid, ROLE_PLAN_MR, d) for lid, d in plan_keys])[lesion],
        "planning_ct": store.rows([(lid, ROLE_PLAN_CT, d) for lid, d in plan_keys])[lesion],
    }
    # an error names the first sample, in sample order, that has one
    missing = (rows["followup_mr"] < 0) | (rows["planning_mr"] < 0)
    bad_gap = (gap <= 0) & ("delta" in spec.blocks)
    no_ct = (rows["planning_ct"] < 0) & ("planning_ct" in spec.blocks)
    first_bad = np.flatnonzero(missing | bad_gap | no_ct)[:1]
    if first_bad.size:
        sample = kept[first_bad[0]]
        if missing[first_bad[0]]:
            raise DataError(f"feature store is missing images for {sample.lesion_id}")
        if bad_gap[first_bad[0]]:
            raise DataError(f"elapsed days must be > 0, got {sample.gap_days}")
        # the sample's lesion has no planning-CT row
        raise DataError(f"[assemble {sample.lesion_id}/{sample.imaging_date}] "
                        f"feature set {spec.set_id} requires the planning_ct block")

    # the clinical columns are per lesion, except the planning -> follow-up gap
    clinical = np.array([list(clinical_features(rec.clinical, 0).values()) for rec in records])[lesion]
    clinical[:, CLINICAL_FEATURE_NAMES.index("clinical-gap_days")] = gap
    blocks = {"clinical": clinical}
    for name in spec.blocks:
        if name == "delta":
            fu, plan = store.values[rows["followup_mr"]], store.values[rows["planning_mr"]]
            blocks[name] = delta_rows(fu, plan, gap[:, None])
        elif name in rows:
            blocks[name] = store.values[rows[name]]
    segments = assemble(spec, store.names)
    # np.take keeps X C-ordered, as the selection and fit results depend on the layout
    X = np.concatenate([np.take(blocks[source], cols, axis=1) for _, source, cols in segments], axis=1)
    names = [
        CLINICAL_FEATURE_NAMES[k] if source == "clinical" else f"{BLOCK_TAGS[source]}-{store.names[k]}"
        for _, source, cols in segments
        for k in cols
    ]
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        sample = kept[row]
        raise DataError(f"[assemble {sample.lesion_id}/{sample.imaging_date}] "
                        f"non-finite value {X[row, col]} in column {names[col]}")
    y = np.asarray([1 if s.label == "HRM" else 0 for s in kept], dtype=np.int64)
    times = np.asarray([s.days_to_event_or_censor for s in kept], dtype=np.float64)
    events = np.asarray([not s.censored for s in kept], dtype=bool)
    return Dataset(
        set_id=spec.set_id,
        feature_names=names,
        column_blocks=[block for block, _, cols in segments for _ in cols],
        X=X,
        y=y,
        lesion_ids=[s.lesion_id for s in kept],
        times=times,
        events=events,
        km_censored=[p for p in labeling.km_censored if p.lesion_id not in excluded_set],
        excluded_lesions=excluded,
    )
