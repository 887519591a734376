import dataclasses
import types

import radrisk
import radrisk.evaluation

# The public names of each package, modules left out. Like CLI_SURFACE in test_cli.py, this pins the
# importable API, so adding or removing a name is a visible edit here.
PUBLIC_API = {
    radrisk: [
        "ClassifierConfig", "ClinicalData", "ConfigError", "CvConfig", "CvReport", "DataError", "Dataset",
        "DiscretizedRoi", "EffectConfig", "ExtractionConfig", "FeatureSetSpec", "Followup", "ImageSource",
        "KmPoint", "LabeledSample", "MetastasisRecord", "NumericalError",
        "RadriskError", "RoiMask", "SUBBAND_LABELS", "SelectionResult", "SurvivalCurve", "SynthConfig",
        "TrainedModel", "VolumeImage", "WaveletBank", "assemble", "build_dataset", "clinical_features",
        "correlation_report", "decision_scores", "decompose", "delta_features", "discretize", "extract_all",
        "extract_cohort", "feature_names", "feature_set", "firstorder_features", "fit", "get_bank",
        "kaplan_meier", "label_samples", "load_manifest", "load_model", "log_rank", "monte_carlo_cv",
        "mrmr_select", "pearson", "predict", "read_mask", "read_volume", "reconstruct", "risk_split_report",
        "roc_curve", "select_features", "selection_cap", "shape_features", "synth_cohort", "texture_features",
        "white_stripe_stats", "write_volume", "zscore_stats",
    ],
    radrisk.evaluation: [
        "CvConfig", "CvReport", "DAYS_PER_MONTH", "LogRankResult", "RiskSplitReport", "RocCurve",
        "SurvivalCurve", "confusion_at", "curve_csv", "days_to_months", "format_confusion",
        "format_median_split", "format_months", "kaplan_meier", "log_rank", "monte_carlo_cv",
        "risk_split_report", "roc_curve", "select_features", "write_risk_split",
    ],
}


def test_public_api_is_locked():
    for module, names in PUBLIC_API.items():
        public = sorted(name for name in dir(module)
                        if not name.startswith("_") and not isinstance(getattr(module, name), types.ModuleType))
        assert public == names, module.__name__


# The (field, default) pairs of each config. Each settable value doubles the configurations a test could have
# to cover, so adding or removing one is a visible edit here, as a public name is above.
CONFIG_FIELDS = {
    radrisk.ExtractionConfig: [("n_bins", 32), ("wavelet", "haar"), ("whitestripe", "mr"), ("zscore", True)],
    radrisk.CvConfig: [("repeats", 100), ("test_frac", 1.0 / 3.0), ("seed", 0), ("threads", 1),
                       ("per_samples", 10), ("per_fold", True)],
    radrisk.ClassifierConfig: [("C", 1.0), ("sensitivity_weight", 2.0), ("threshold", 0.0), ("seed", 0),
                               ("max_epochs", 20000), ("tol", 1e-6)],
    radrisk.SynthConfig: [("hrm_fraction", 0.1), ("followups", (2, 2)), ("exclude_fraction", 0.05),
                          ("ct_missing_fraction", 0.0)],
    radrisk.EffectConfig: [("growth", 0.5), ("texture", 2.0)],
}


def test_config_fields_are_locked():
    for config, fields in CONFIG_FIELDS.items():
        assert [(f.name, f.default) for f in dataclasses.fields(config)] == fields, config.__name__
