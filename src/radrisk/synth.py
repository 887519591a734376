"""Deterministic synthetic cohorts with a plantable image-level risk signal.

Each lesion is an ellipsoid on a two-compartment noisy background in a 14^3
volume of 1 mm voxels. Follow-up images whose label (by the labeling rule,
horizon ``HORIZON_DAYS``) is high-risk are rendered with enlarged radii and
extra intensity heterogeneity; clinical covariates are drawn independently of
risk so they carry no signal. Event and censoring dates are placed to hit the
configured sample-level high-risk prevalence (~5% with the defaults).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from .cohort import HORIZON_DAYS, ClinicalData, Followup, ImageSource, MetastasisRecord
from .errors import ConfigError
from .volume import RoiMask, VolumeImage


@dataclass(frozen=True)
class EffectConfig:
    growth: float = 0.5  # fractional radius increase of high-risk follow-ups
    texture: float = 2.0  # lesion noise-std multiplier of high-risk follow-ups

    def __post_init__(self):
        if not -1.0 < self.growth < np.inf:
            raise ConfigError(f"growth must be a finite number > -1, got {self.growth}")
        if not 0.0 <= self.texture < np.inf:
            raise ConfigError(f"texture must be a finite number >= 0, got {self.texture}")


@dataclass(frozen=True)
class SynthConfig:
    hrm_fraction: float = 0.10  # lesion-level; ~5% sample prevalence with 2 follow-ups
    followups: tuple[int, int] = (2, 2)
    exclude_fraction: float = 0.05  # lesions censored before the horizon
    ct_missing_fraction: float = 0.0

    def __post_init__(self):
        if not 1 <= self.followups[0] <= self.followups[1]:
            raise ConfigError(f"follow-ups (min, max) must satisfy 1 <= min <= max, got {self.followups}")
        for name in ("hrm_fraction", "exclude_fraction", "ct_missing_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")


DIMS = (14, 14, 14)
SPACING = (1.0, 1.0, 1.0)

_PRIMARY_SITES = ("lung", "melanoma", "breast", "other")


def _ellipsoid_q(dims, center, radii) -> np.ndarray:
    grids = np.indices(dims, dtype=np.float64)
    return sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))


def _render_mr(rng, center, radii, lesion_std) -> tuple[VolumeImage, RoiMask]:
    xg = np.indices(DIMS)[0]
    tissue = np.where(xg < int(0.4 * DIMS[0]), 45.0, 75.0)
    img = tissue + rng.normal(0.0, 5.0, size=DIMS)
    q = _ellipsoid_q(DIMS, center, radii)
    mask = q <= 1.0
    core = 95.0 + 8.0 * (1.0 - q[mask])  # brighter toward the lesion center
    img[mask] = core + rng.normal(0.0, lesion_std, size=int(mask.sum()))
    return VolumeImage(img, SPACING, "MR"), RoiMask(mask)


def _render_ct(rng, center, radii) -> tuple[VolumeImage, RoiMask]:
    img = 35.0 + rng.normal(0.0, 6.0, size=DIMS)
    q = _ellipsoid_q(DIMS, center, radii)
    lesion = q <= 1.0
    img[lesion] = 55.0 + 4.0 * (1.0 - q[lesion]) + rng.normal(0.0, 5.0, size=int(lesion.sum()))
    ptv = _ellipsoid_q(DIMS, center, tuple(r + 1.0 for r in radii)) <= 1.0
    return VolumeImage(img, SPACING, "CT"), RoiMask(ptv)


def synth_cohort(
    seed: int,
    n_lesions: int,
    effect: EffectConfig = EffectConfig(),
    config: SynthConfig = SynthConfig(),
) -> list[MetastasisRecord]:
    """Generate a deterministic cohort of ``n_lesions`` single-lesion patients."""
    if n_lesions < 2:
        raise ConfigError(f"need at least 2 lesions, got {n_lesions}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n_hrm = max(1, round(config.hrm_fraction * n_lesions))
    hrm_lesions = set(rng.permutation(n_lesions)[:n_hrm].tolist())

    records: list[MetastasisRecord] = []
    base_date = datetime.date(2010, 1, 1)
    for idx in range(n_lesions):
        pid = f"P{idx:04d}"
        lid = f"{pid}-L1"
        clinical = ClinicalData(
            rpa_class=int(rng.integers(1, 4)),
            eqd=float(np.round(rng.uniform(20.0, 40.0), 1)),
            n_metastases=int(rng.integers(1, 6)),
            age=float(np.round(rng.normal(62.0, 10.0), 1)),
            sex=int(rng.integers(0, 2)),
            karnofsky=int(rng.choice([60, 70, 80, 90, 100])),
            primary_site=str(rng.choice(_PRIMARY_SITES, p=[0.4, 0.2, 0.2, 0.2])),
            extracranial=int(rng.integers(0, 2)),
        )
        center = tuple(d / 2.0 - 0.5 + rng.uniform(-0.8, 0.8) for d in DIMS)
        radii = tuple(rng.uniform(2.0, 2.8) for _ in range(3))

        planning_date = base_date + datetime.timedelta(days=int(rng.integers(0, 200)))
        n_fu = int(rng.integers(config.followups[0], config.followups[1] + 1))
        fu_dates = []
        d = planning_date
        for _ in range(n_fu):
            d = d + datetime.timedelta(days=int(85 + rng.integers(0, 21)))
            fu_dates.append(d)

        is_hrm = idx in hrm_lesions
        if is_hrm:
            # event after a uniformly chosen follow-up, so the follow-up index
            # and the planning gap carry no label signal (later follow-ups on
            # or after the event are dropped by the labeling rule)
            anchor = int(rng.integers(0, n_fu))
            event_date = fu_dates[anchor] + datetime.timedelta(days=int(rng.integers(20, 96)))
            censor_date = max(event_date, fu_dates[-1])
        else:
            event_date = None
            if rng.uniform() < config.exclude_fraction:
                gap = int(rng.integers(5, max(6, HORIZON_DAYS - 5)))
            else:
                gap = int(rng.integers(HORIZON_DAYS + 5, HORIZON_DAYS + 200))
            censor_date = fu_dates[-1] + datetime.timedelta(days=gap)

        vol_mr, mask_mr = _render_mr(rng, center, radii, lesion_std=8.0)
        planning_mr = ImageSource(volume=vol_mr, mask=mask_mr)
        planning_ct = None
        if rng.uniform() >= config.ct_missing_fraction:
            vol_ct, mask_ct = _render_ct(rng, center, radii)
            planning_ct = ImageSource(volume=vol_ct, mask=mask_ct)

        followups = []
        for fu_date in fu_dates:
            hot = (
                event_date is not None
                and 0 < (event_date - fu_date).days <= HORIZON_DAYS
            )
            if hot:
                fu_radii = tuple(r * (1.0 + effect.growth) for r in radii)
                fu_std = 8.0 * effect.texture
            else:
                fu_radii = tuple(r * (1.0 + rng.uniform(-0.05, 0.05)) for r in radii)
                fu_std = 8.0
            vol, mask = _render_mr(rng, center, fu_radii, lesion_std=fu_std)
            followups.append(Followup(fu_date, ImageSource(volume=vol, mask=mask)))

        records.append(
            MetastasisRecord(
                patient_id=pid,
                lesion_id=lid,
                clinical=clinical,
                planning_date=planning_date,
                planning_mr=planning_mr,
                planning_ct=planning_ct,
                followups=tuple(followups),
                event_date=event_date,
                censor_date=censor_date,
            )
        )
    return records
