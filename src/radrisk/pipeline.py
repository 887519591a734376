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
    KmPoint,
    LabeledSample,
    MetastasisRecord,
    FeatureSetSpec,
    TAG_FOLLOWUP,
    TAG_PLAN_CT,
    TAG_PLAN_MR,
    assemble,
    clinical_features,
    delta_features,
    label_samples,
)
from .errors import DataError
from .features import ExtractionConfig, extract_all
from .volume import RoiMask, VolumeImage, WhiteStripeConfig, white_stripe_normalize, z_normalize

log = logging.getLogger(__name__)

ROLE_FOLLOWUP = "followup"
ROLE_PLAN_MR = "planning_mr"
ROLE_PLAN_CT = "planning_ct"

ROLE_TAGS = {ROLE_FOLLOWUP: TAG_FOLLOWUP, ROLE_PLAN_MR: TAG_PLAN_MR, ROLE_PLAN_CT: TAG_PLAN_CT}

FeatureStore = dict  # (lesion_id, role, date_iso) -> {feature name: value}


@dataclass(frozen=True)
class NormalizationConfig:
    zscore: bool = True
    whitestripe: str = "mr"  # "mr" = all MR volumes, "none" = disabled


def normalize_volume(img: VolumeImage, mask: RoiMask, cfg: NormalizationConfig) -> VolumeImage:
    """Apply the configured intensity normalizations (white-stripe on MR only)."""
    out = img
    if cfg.zscore:
        out, _ = z_normalize(out)
    if cfg.whitestripe == "mr" and img.modality == "MR":
        brain = RoiMask(np.ones(img.dims, dtype=bool))
        out, _ = white_stripe_normalize(out, brain, WhiteStripeConfig())
    return out


def _image_jobs(records: list[MetastasisRecord]):
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
    per-image errors are collected there instead of raised and the failing
    rows are omitted. The result is deterministic and independent of
    ``threads``.
    """
    jobs = [j for j in _image_jobs(records) if not (skip_keys and (j[0], j[1], j[2]) in skip_keys)]

    def run(job):
        lesion_id, role, date_iso, source = job
        try:
            img, mask = source.load(base_dir)
            img = normalize_volume(img, mask, normalization)
            return extract_all(img, mask, extraction, ROLE_TAGS[role])
        except DataError as exc:
            message = f"[extract {lesion_id}/{role}/{date_iso}] {exc}"
            if failures is None:
                raise DataError(message) from exc
            log.warning("%s", message)
            failures.append(message)
            return None

    store: FeatureStore = {}
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    for job, fv in zip(jobs, results):
        if fv is not None:
            store[(job[0], job[1], job[2])] = fv
    return store


@dataclass
class Dataset:
    """Assembled per-sample matrix for one feature set."""

    set_id: int
    feature_names: list[str]
    X: np.ndarray
    y: np.ndarray  # 1 = HRM
    lesion_ids: list[str]
    times: np.ndarray  # days to event or censoring
    events: np.ndarray  # True = progression observed
    samples: list[LabeledSample]
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
    exclusion) when the set requires the CT block.
    """
    by_lesion = {rec.lesion_id: rec for rec in records}
    labeling = label_samples(records, horizon_days)

    excluded = []
    if "planning_ct" in spec.blocks:
        excluded = [rec.lesion_id for rec in records if rec.planning_ct is None]
    excluded_set = set(excluded)

    names: list[str] | None = None
    rows: list[list[float]] = []
    kept: list[LabeledSample] = []
    for sample in labeling.samples:
        if sample.lesion_id in excluded_set:
            continue
        rec = by_lesion[sample.lesion_id]
        date_iso = rec.planning_date.isoformat()
        clin = clinical_features(rec.clinical, sample.gap_days)
        fu_fv = store.get((sample.lesion_id, ROLE_FOLLOWUP, sample.imaging_date.isoformat()))
        plan_mr_fv = store.get((sample.lesion_id, ROLE_PLAN_MR, date_iso))
        plan_ct_fv = store.get((sample.lesion_id, ROLE_PLAN_CT, date_iso))
        if fu_fv is None or plan_mr_fv is None:
            raise DataError(f"feature store is missing images for {sample.lesion_id}")
        delta = None
        if "delta" in spec.blocks:
            delta = delta_features(fu_fv, plan_mr_fv, sample.gap_days)
        try:
            fv = assemble(
                spec,
                clinical=clin,
                followup_mr=fu_fv,
                delta=delta,
                planning_mr=plan_mr_fv,
                planning_ct=plan_ct_fv,
            )
        except DataError as exc:
            raise DataError(f"[assemble {sample.lesion_id}/{sample.imaging_date}] {exc}") from exc
        if names is None:
            names = list(fv)
        elif names != list(fv):
            raise DataError(f"inconsistent feature columns for {sample.lesion_id}")
        rows.append([fv[n] for n in names])
        kept.append(sample)

    if names is None:
        raise DataError("no usable samples after labeling and exclusions")
    X = np.asarray(rows, dtype=np.float64)
    y = np.asarray([1 if s.label == "HRM" else 0 for s in kept], dtype=np.int64)
    times = np.asarray([s.days_to_event_or_censor for s in kept], dtype=np.float64)
    events = np.asarray([not s.censored for s in kept], dtype=bool)
    return Dataset(
        set_id=spec.set_id,
        feature_names=names,
        X=X,
        y=y,
        lesion_ids=[s.lesion_id for s in kept],
        times=times,
        events=events,
        samples=kept,
        km_censored=[p for p in labeling.km_censored if p.lesion_id not in excluded_set],
        excluded_lesions=excluded,
    )
