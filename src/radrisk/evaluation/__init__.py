"""Evaluation: ROC/AUC, Monte-Carlo cross-validation, survival statistics,
and the predicted-risk split report."""

from .cv import CvConfig, CvReport, monte_carlo_cv, select_features
from .report import (
    RiskSplitReport,
    curve_csv,
    format_confusion,
    format_median_split,
    format_months,
    risk_split_report,
    write_risk_split,
)
from .roc import RocCurve, confusion_at, roc_curve
from .survival import (
    DAYS_PER_MONTH,
    LogRankResult,
    SurvivalCurve,
    days_to_months,
    kaplan_meier,
    log_rank,
)

__all__ = [
    "CvConfig",
    "CvReport",
    "monte_carlo_cv",
    "select_features",
    "RiskSplitReport",
    "curve_csv",
    "format_confusion",
    "format_median_split",
    "format_months",
    "risk_split_report",
    "write_risk_split",
    "RocCurve",
    "confusion_at",
    "roc_curve",
    "DAYS_PER_MONTH",
    "LogRankResult",
    "SurvivalCurve",
    "days_to_months",
    "kaplan_meier",
    "log_rank",
]
