"""Longitudinal cohort model: patients, lesions, timepoints, risk labeling,
delta features, and feature-set assembly.

Labeling rule (horizon defaults to ``HORIZON_DAYS``): a follow-up image is HRM
when a progression event falls in ``(imaging_date, imaging_date + horizon]``,
LRM when the lesion is observed at least ``horizon`` days past the image
without an event (an event beyond the horizon also counts as observation).
Follow-ups censored before the horizon with no event are excluded from
classification but kept as censored points for survival plotting. Follow-ups
dated on or after the event date are dropped with a warning.
"""

from __future__ import annotations

import datetime
import json
import logging
import math
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .volume import RoiMask, VolumeImage, read_mask, read_volume

log = logging.getLogger(__name__)

HORIZON_DAYS = 100

TAG_CLINICAL = "clinical"
TAG_FOLLOWUP = "follow-up-mr"
TAG_PLAN_MR = "Plan-mr"
TAG_PLAN_CT = "Plan-ct"
TAG_DELTA = "Delta-mr"

# every tag-free feature name starts with its filter: 'original-shape-Volume'
FILTER_PREFIXES = ("original-", "wavelet-")
_FILTER_MARKERS = tuple(f"-{prefix}" for prefix in FILTER_PREFIXES)

CLINICAL_FEATURE_NAMES = (
    "clinical-rpa_class",
    "clinical-eqd",
    "clinical-n_metastases",
    "clinical-age",
    "clinical-sex",
    "clinical-karnofsky",
    "clinical-primary_lung",
    "clinical-primary_melanoma",
    "clinical-primary_breast",
    "clinical-gap_days",
    "clinical-lesion_count_class",
    "clinical-extracranial",
)


@dataclass(frozen=True)
class ClinicalData:
    """The 12-covariate clinical schema (declared stand-in; only rpa_class,
    eqd and n_metastases are domain-fixed, the rest are synthetic-schema)."""

    rpa_class: int
    eqd: float
    n_metastases: int
    age: float
    sex: int  # 0 = F, 1 = M
    karnofsky: int
    primary_site: str  # lung / melanoma / breast / other
    extracranial: int

    def __post_init__(self):
        if self.rpa_class not in (1, 2, 3):
            raise DataError(f"rpa_class must be 1..3, got {self.rpa_class}")
        if self.n_metastases < 1:
            raise DataError(f"n_metastases must be >= 1, got {self.n_metastases}")


def clinical_features(clinical: ClinicalData, gap_days: int) -> dict[str, float]:
    """Flatten clinical covariates into the 12 feature columns for one sample."""
    n = clinical.n_metastases
    count_class = 1 if n == 1 else (2 if n <= 3 else 3)
    site = clinical.primary_site
    values = [clinical.rpa_class, clinical.eqd, n, clinical.age, clinical.sex, clinical.karnofsky,
              site == "lung", site == "melanoma", site == "breast", gap_days, count_class, clinical.extracranial]
    return dict(zip(CLINICAL_FEATURE_NAMES, map(float, values), strict=True))


@dataclass(frozen=True)
class ImageSource:
    """Reference to one (volume, mask) pair: either in-memory or on disk."""

    image_path: str | None = None
    mask_path: str | None = None
    volume: VolumeImage | None = None
    mask: RoiMask | None = None

    def load(self, base_dir: Path | None = None) -> tuple[VolumeImage, RoiMask]:
        if self.volume is not None and self.mask is not None:
            return self.volume, self.mask
        if self.image_path is None or self.mask_path is None:
            raise DataError("image source has neither in-memory data nor paths")
        base = base_dir or Path(".")
        return read_volume(base / self.image_path), read_mask(base / self.mask_path)


@dataclass(frozen=True)
class Followup:
    date: datetime.date
    source: ImageSource


@dataclass(frozen=True)
class MetastasisRecord:
    patient_id: str
    lesion_id: str
    clinical: ClinicalData
    planning_date: datetime.date
    planning_mr: ImageSource
    followups: tuple[Followup, ...]
    censor_date: datetime.date
    planning_ct: ImageSource | None = None
    event_date: datetime.date | None = None

    def __post_init__(self):
        dates = [f.date for f in self.followups]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise DataError(f"{self.lesion_id}: follow-up dates must be strictly increasing")
        if self.event_date is not None and dates and self.event_date < dates[0]:
            raise DataError(f"{self.lesion_id}: event precedes the first follow-up")
        imaging = [self.planning_date] + dates
        if any(d > self.censor_date for d in imaging):
            raise DataError(f"{self.lesion_id}: censor_date precedes an imaging date")


@dataclass(frozen=True)
class LabeledSample:
    lesion_id: str
    patient_id: str
    imaging_date: datetime.date
    label: str  # "HRM" or "LRM"
    days_to_event_or_censor: int
    censored: bool
    gap_days: int  # planning -> follow-up
    followup_index: int


@dataclass(frozen=True)
class KmPoint:
    """Censored-before-horizon follow-up kept only for survival plotting."""

    lesion_id: str
    imaging_date: datetime.date
    days: int
    censored: bool = True


@dataclass
class LabelingResult:
    samples: list[LabeledSample]
    km_censored: list[KmPoint]
    dropped: list[tuple[str, datetime.date, str]]


def label_samples(records: list[MetastasisRecord], horizon_days: int = HORIZON_DAYS) -> LabelingResult:
    """Apply the risk-labeling rule to every follow-up image of every lesion."""
    if horizon_days <= 0:
        raise DataError(f"horizon must be > 0 days, got {horizon_days}")
    samples: list[LabeledSample] = []
    km_extras: list[KmPoint] = []
    dropped: list[tuple[str, datetime.date, str]] = []
    for rec in records:
        for k, fu in enumerate(rec.followups):
            if rec.event_date is not None and fu.date >= rec.event_date:
                reason = "imaging on/after the progression event"
                log.warning("%s %s dropped: %s", rec.lesion_id, fu.date, reason)
                dropped.append((rec.lesion_id, fu.date, reason))
                continue
            gap = (fu.date - rec.planning_date).days
            if rec.event_date is not None:
                days = (rec.event_date - fu.date).days
                label = "HRM" if days <= horizon_days else "LRM"
                samples.append(
                    LabeledSample(rec.lesion_id, rec.patient_id, fu.date, label, days, False, gap, k)
                )
            else:
                days = (rec.censor_date - fu.date).days
                if days >= horizon_days:
                    samples.append(
                        LabeledSample(rec.lesion_id, rec.patient_id, fu.date, "LRM", days, True, gap, k)
                    )
                else:
                    km_extras.append(KmPoint(rec.lesion_id, fu.date, days))
    return LabelingResult(samples, km_extras, dropped)


# ---------------------------------------------------------------------------
# Delta features and feature-set assembly


def strip_image_tag(name: str) -> str:
    """Drop the leading image tag: 'Plan-mr-original-shape-Volume' -> 'original-shape-Volume'."""
    for marker in _FILTER_MARKERS:
        pos = name.find(marker)
        if pos >= 0:
            return name[pos + 1 :]
    raise DataError(f"feature name {name!r} does not follow the <tag>-<filter>-<class>-<name> grammar")


def delta_rows(followup: np.ndarray, planning: np.ndarray, days) -> np.ndarray:
    """Per-day change of aligned feature values: ``days`` is a scalar or a column of day counts."""
    return (followup - planning) / days


def delta_features(followup: dict[str, float], planning: dict[str, float], days: int) -> dict[str, float]:
    """Per-day feature change between follow-up and planning MRI."""
    if days <= 0:
        raise DataError(f"elapsed days must be > 0, got {days}")
    plan = {strip_image_tag(name): value for name, value in planning.items()}
    suffixes = [strip_image_tag(name) for name in followup]
    missing = [name for name, suffix in zip(followup, suffixes) if suffix not in plan]
    if missing:
        raise DataError(f"no planning counterpart for feature {missing[0]!r}")
    if len(plan) != len(suffixes):
        raise DataError("planning vector has features missing from the follow-up vector")
    fu = np.fromiter(followup.values(), np.float64, len(followup))
    plan_values = np.fromiter((plan[suffix] for suffix in suffixes), np.float64, len(suffixes))
    return dict(zip([f"{TAG_DELTA}-{s}" for s in suffixes], delta_rows(fu, plan_values, days).tolist()))


# Table 1 of the paper: the six feature blocks in column order, with their titles
BLOCK_TITLES = {
    "clinical": "Clinical data",
    "followup_mr": "Radiomic features follow-up MRI",
    "delta": "Delta-radiomic features",
    "planning_mr": "Radiomic features planning MRI",
    "planning_ct": "Radiomic features planning CT",
    "wavelet": "Wavelet filtered images",
}

# set id -> the blocks it assembles, in column order
FEATURE_SETS = {
    1: ("clinical",),
    2: ("clinical", "followup_mr"),
    3: ("clinical", "delta"),
    4: ("clinical", "planning_mr"),
    5: ("clinical", "planning_ct"),
    6: ("clinical", "followup_mr", "delta", "planning_mr", "planning_ct"),
    7: ("clinical", "followup_mr", "delta", "planning_mr", "planning_ct", "wavelet"),
}

# the tag each block's column names start with; the wavelet block has none of
# its own, as ``assemble`` gathers it from every image block with that block's tag
BLOCK_TAGS = {
    "clinical": TAG_CLINICAL,
    "followup_mr": TAG_FOLLOWUP,
    "delta": TAG_DELTA,
    "planning_mr": TAG_PLAN_MR,
    "planning_ct": TAG_PLAN_CT,
}


@dataclass(frozen=True)
class FeatureSetSpec:
    """One of the 7 canonical feature-set rows; its blocks come from ``FEATURE_SETS``."""

    set_id: int

    def __post_init__(self):
        if self.set_id not in FEATURE_SETS:
            raise DataError(f"feature set id must be 1..7, got {self.set_id}")

    @property
    def blocks(self) -> tuple[str, ...]:
        return FEATURE_SETS[self.set_id]


def feature_set(set_id: int) -> FeatureSetSpec:
    return FeatureSetSpec(set_id)


def assemble(spec: FeatureSetSpec, names: list[str]) -> list[tuple[str, str, list[int]]]:
    """The set's columns in a stable order, as segments (Table 1 block, source block, column indices).

    The clinical segment indexes ``CLINICAL_FEATURE_NAMES``; an image block's
    segment (follow-up, delta, planning MR or CT) indexes ``names``, the
    tag-free feature names that every image block shares, and is gathered from
    its source block. Original-filter columns come first (per block, in
    canonical block order) and are their own Table 1 block; when the set has
    the wavelet block, the wavelet-filter columns of every included image block
    are appended, and form the Table 1 wavelet block.
    """
    images = [block for block in spec.blocks if block not in ("clinical", "wavelet")]
    clinical = list(range(len(CLINICAL_FEATURE_NAMES)))
    segments = [("clinical", "clinical", clinical)] if "clinical" in spec.blocks else []
    for prefix in FILTER_PREFIXES if "wavelet" in spec.blocks else FILTER_PREFIXES[:1]:
        cols = [k for k, name in enumerate(names) if name.startswith(prefix)]
        segments += [("wavelet" if prefix == "wavelet-" else block, block, cols) for block in images]
    return segments


# ---------------------------------------------------------------------------
# Manifest I/O

MANIFEST_FORMAT_VERSION = 1


def _parse_date(value: str, context: str) -> datetime.date:
    """A manifest date, written ``YYYY-MM-DD`` in ASCII digits, the spelling that its table keys take: the
    other forms that ``date.fromisoformat`` reads (``20100313``, ``2010-W24-2``) are refused."""
    try:
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", value):
            raise ValueError
        return datetime.date.fromisoformat(value)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{context}: bad ISO date {value!r} (expected YYYY-MM-DD)") from exc


def _parse_source(obj: dict | None, context: str) -> ImageSource | None:
    if obj is None:
        return None
    if not isinstance(obj, dict) or "image" not in obj or "mask" not in obj:
        raise DataError(f"{context}: image ref must be an object with 'image' and 'mask'")
    for key in ("image", "mask"):
        if not isinstance(obj[key], str):
            raise DataError(f"{context}: {key!r} path must be a string, got {obj[key]!r}")
    return ImageSource(image_path=obj["image"], mask_path=obj["mask"])


def _required(obj: dict, key: str, context: str):
    value = obj.get(key)
    if value is None:
        raise DataError(f"{context}: missing field {key!r}")
    return value


def _identifier(obj: dict, key: str, context: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise DataError(f"{context}: {key!r} must be a non-empty string, got {value!r}")
    if not value.isprintable():  # a newline or NUL would not survive features.csv, and could forge a log line
        raise DataError(f"{context}: {key!r} must be printable text, got {value!r}")
    return value


def _is_number(value) -> bool:
    """A JSON number that converts to a finite float; bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


_CLINICAL_NUMBERS = ("rpa_class", "eqd", "n_metastases", "age", "sex", "karnofsky", "extracranial")


def _parse_clinical(obj, pid: str) -> ClinicalData:
    if not isinstance(obj, dict):
        raise DataError(f"{pid}: 'clinical' must be an object")
    for key in _CLINICAL_NUMBERS:
        if key in obj and not _is_number(obj[key]):
            raise DataError(f"{pid}: clinical field {key!r} must be a number, got {obj[key]!r}")
    if not isinstance(obj.get("primary_site", ""), str):
        raise DataError(f"{pid}: clinical field 'primary_site' must be a string, got {obj['primary_site']!r}")
    try:
        return ClinicalData(**obj)
    except TypeError as exc:
        raise DataError(f"{pid}: bad clinical block ({exc})") from exc


def _entries(obj: dict, key: str, context: str) -> list[dict]:
    """``obj[key]`` as a list of objects; a missing key is an empty list."""
    entries = obj.get(key, [])
    if not isinstance(entries, list):
        raise DataError(f"{context}: {key!r} must be an array")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"{context}: {key!r} entry {k} must be an object")
    return entries


def load_manifest(path: str | Path) -> list[MetastasisRecord]:
    """Load and validate a cohort manifest (schema in the README)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    if not path.is_file():
        raise DataError(f"manifest {path} is not a file")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"malformed manifest JSON {path}: {exc}") from exc
    if not isinstance(data, dict) or "patients" not in data:
        raise DataError(f"manifest {path} must be an object with a 'patients' array")
    patients = _entries(data, "patients", f"manifest {path}")
    try:  # a refusal names the file, then where in it
        return _records(patients)
    except DataError as exc:
        raise DataError(f"manifest {path}: {exc}") from exc


def _records(patients: list[dict]) -> list[MetastasisRecord]:
    """The validated records of a manifest's ``patients`` entries."""
    records: list[MetastasisRecord] = []
    patient_of: dict[str, str] = {}  # lesion_id -> patient_id; the feature table keys images by lesion
    for j, p in enumerate(patients):
        pid = _identifier(p, "patient_id", f"patient {j}")
        clinical = _parse_clinical(_required(p, "clinical", pid), pid)
        for i, lesion in enumerate(_entries(p, "lesions", pid)):
            lid = _identifier(lesion, "lesion_id", f"{pid}: lesion {i}")
            if lid in patient_of:
                raise DataError(f"lesion_id {lid!r} appears twice, "
                                f"under patients {patient_of[lid]!r} and {pid!r}")
            patient_of[lid] = pid
            ctx = f"{pid}/{lid}"
            followups = tuple(
                Followup(
                    _parse_date(_required(f, "date", f"{ctx} follow-up {k}"), f"{ctx} follow-up {k} date"),
                    _parse_source(f, f"{ctx} follow-up {k}"),
                )
                for k, f in enumerate(_entries(lesion, "followups", ctx))
            )
            event = lesion.get("event_date")
            records.append(
                MetastasisRecord(
                    patient_id=pid,
                    lesion_id=lid,
                    clinical=clinical,
                    planning_date=_parse_date(_required(lesion, "planning_date", ctx), f"{ctx} planning_date"),
                    planning_mr=_parse_source(_required(lesion, "planning_mr", ctx), f"{ctx} planning_mr"),
                    planning_ct=_parse_source(lesion.get("planning_ct"), f"{ctx} planning_ct"),
                    followups=followups,
                    event_date=None if event is None else _parse_date(event, f"{ctx} event_date"),
                    censor_date=_parse_date(_required(lesion, "censor_date", ctx), f"{ctx} censor_date"),
                )
            )
    return records


def manifest_dict(records: list[MetastasisRecord], source_paths: dict) -> dict:
    """Serialize records to the manifest schema.

    ``source_paths`` maps id(ImageSource) -> {"image": ..., "mask": ...} for
    every source of ``records``, as written to disk.
    """

    def ref(src: ImageSource | None):
        if src is None:
            return None
        return source_paths[id(src)]

    patients: dict[str, dict] = {}
    for rec in records:
        pat = patients.setdefault(
            rec.patient_id,
            {
                "patient_id": rec.patient_id,
                "clinical": asdict(rec.clinical),
                "lesions": [],
            },
        )
        lesion = {
            "lesion_id": rec.lesion_id,
            "planning_date": rec.planning_date.isoformat(),
            "planning_mr": ref(rec.planning_mr),
            "planning_ct": ref(rec.planning_ct),
            "followups": [
                {"date": fu.date.isoformat(), **ref(fu.source)} for fu in rec.followups
            ],
            "event_date": rec.event_date.isoformat() if rec.event_date else None,
            "censor_date": rec.censor_date.isoformat(),
        }
        pat["lesions"].append(lesion)
    return {"format_version": MANIFEST_FORMAT_VERSION, "patients": list(patients.values())}
