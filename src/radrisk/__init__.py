"""radrisk: radiomics + delta-radiomics risk classification for longitudinal
3D lesion imaging.

Pipeline: volume I/O and intensity normalization -> optional undecimated
wavelet subbands -> radiomic feature extraction -> per-day delta features
between planning and follow-up imaging -> correlation-based greedy feature
selection -> class-weighted linear max-margin classification -> Monte-Carlo
cross-validation and survival-style evaluation (AUC, Kaplan-Meier, log-rank).
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, NumericalError, RadriskError
from .volume import RoiMask, VolumeImage, read_mask, read_volume, white_stripe_stats, write_volume, zscore_stats
from .wavelet import SUBBAND_LABELS, WaveletBank, decompose, get_bank, reconstruct
from .features import (
    DiscretizedRoi,
    ExtractionConfig,
    discretize,
    extract_all,
    feature_names,
    firstorder_features,
    shape_features,
    texture_features,
)
from .cohort import (
    ClinicalData,
    FeatureSetSpec,
    Followup,
    ImageSource,
    KmPoint,
    LabeledSample,
    MetastasisRecord,
    assemble,
    clinical_features,
    delta_features,
    feature_set,
    label_samples,
    load_manifest,
)
from .selection import (
    SelectionResult,
    correlation_report,
    mrmr_select,
    pearson,
    selection_cap,
)
from .classifier import ClassifierConfig, TrainedModel, decision_scores, fit, load_model, predict
from .evaluation import (
    CvConfig,
    CvReport,
    SelectionConfig,
    SurvivalCurve,
    auc,
    kaplan_meier,
    log_rank,
    monte_carlo_cv,
    risk_split_report,
    roc_curve,
)
from .pipeline import Dataset, NormalizationConfig, build_dataset, extract_cohort
from .synth import EffectConfig, SynthConfig, synth_cohort
