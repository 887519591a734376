"""Risk-split analysis: survival curves of the predicted groups, medians,
log-rank significance, and confusion counts with explicit censor accounting.

Times are reported in days in CSV tables and additionally in months
(days / 30.44) in the human-readable summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..pipeline import Dataset
from ..svgplot import km_plot
from .roc import confusion_at
from .survival import LogRankResult, SurvivalCurve, days_to_months, kaplan_meier, log_rank


@dataclass
class RiskSplitReport:
    curve_full: SurvivalCurve
    curve_hrm: SurvivalCurve | None
    curve_lrm: SurvivalCurve | None
    logrank: LogRankResult | None
    median_hrm_days: float | None
    median_lrm_days: float | None
    confusion: dict[str, int]
    n_censored_excluded: int
    n_unscored: int

    def summary_lines(self) -> list[str]:
        lines = []
        lines.append(
            format_median_split(self.median_hrm_days, self.median_lrm_days,
                                self.logrank.p if self.logrank else None)
        )
        lines.append(format_confusion(self.confusion, self.n_censored_excluded))
        return lines


def format_months(days: float | None) -> str:
    if days is None:
        return "not reached"
    return f"{days_to_months(days):.1f} months"


def format_median_split(median_hrm_days, median_lrm_days, p) -> str:
    p_text = "log-rank unavailable" if p is None else (f"p < 0.01" if p < 0.01 else f"p = {p:.3f}")
    return (
        f"median time to progression: HRM {format_months(median_hrm_days)}, "
        f"LRM {format_months(median_lrm_days)} ({p_text})"
    )


def format_confusion(confusion: dict[str, int], n_censored_excluded: int) -> str:
    tp, fn = confusion["tp"], confusion["fn"]
    tn, fp = confusion["tn"], confusion["fp"]
    return (
        f"{tp} of {tp + fn} progressing metastases correctly identified as HRM (true positive), "
        f"{fn} falsely classified as LRM (false negative). Excluding censoring "
        f"({n_censored_excluded} censored before the horizon), "
        f"{tn} of {tn + fp} metastases correctly identified as LRM (true negative) "
        f"and {fp} mis-classified as HRM (false positive)."
    )


def risk_split_report(dataset: Dataset, oof_scores, oof_counts, threshold: float = 0.0) -> RiskSplitReport:
    """Split samples by out-of-fold prediction and compare survival."""
    oof_scores = np.asarray(oof_scores, dtype=np.float64)
    oof_counts = np.asarray(oof_counts)
    if oof_scores.shape[0] != dataset.n_samples:
        raise DataError("out-of-fold scores do not cover the dataset")
    scored = oof_counts > 0
    n_unscored = int((~scored).sum())
    pred_hrm = scored & (oof_scores >= threshold)
    pred_lrm = scored & (oof_scores < threshold)

    times = dataset.times
    events = dataset.events
    extra_times = np.asarray([p.days for p in dataset.km_censored], dtype=np.float64)
    extra_events = np.zeros(extra_times.shape, dtype=bool)
    curve_full = kaplan_meier(
        np.concatenate([times, extra_times]), np.concatenate([events, extra_events])
    )

    curve_hrm = kaplan_meier(times[pred_hrm], events[pred_hrm]) if pred_hrm.any() else None
    curve_lrm = kaplan_meier(times[pred_lrm], events[pred_lrm]) if pred_lrm.any() else None
    lr = None
    if pred_hrm.any() and pred_lrm.any() and (events[pred_hrm].any() or events[pred_lrm].any()):
        lr = log_rank(times[pred_hrm], events[pred_hrm], times[pred_lrm], events[pred_lrm])

    counts = confusion_at(oof_scores[scored], dataset.y[scored], threshold)
    confusion = {key: counts[key] for key in ("tp", "fn", "tn", "fp")}  # report.json key order
    return RiskSplitReport(
        curve_full=curve_full,
        curve_hrm=curve_hrm,
        curve_lrm=curve_lrm,
        logrank=lr,
        median_hrm_days=curve_hrm.median if curve_hrm else None,
        median_lrm_days=curve_lrm.median if curve_lrm else None,
        confusion=confusion,
        n_censored_excluded=len(dataset.km_censored),
        n_unscored=n_unscored,
    )


def curve_csv(curve: SurvivalCurve) -> str:
    """A Kaplan-Meier curve as CSV text, one row per step, floats in repr form."""
    lines = ["time_days,at_risk,events,survival,ci_low,ci_high"]
    for k in range(curve.times.size):
        lines.append(
            f"{curve.times[k]!r},{curve.at_risk[k]},{curve.events[k]},"
            f"{curve.surv[k]!r},{curve.ci_low[k]!r},{curve.ci_high[k]!r}"
        )
    return "\n".join(lines) + "\n"


def write_risk_split(report: RiskSplitReport, out_dir: str | Path, config_comment: str) -> list[Path]:
    """Emit the SVG plot and CSV tables; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    curves = []
    if report.curve_lrm is not None:
        curves.append(("predicted LRM", "#2a9d2a", report.curve_lrm, False))
    if report.curve_hrm is not None:
        curves.append(("predicted HRM", "#c02020", report.curve_hrm, False))
    curves.append(("full cohort", "#333333", report.curve_full, True))
    svg = km_plot(curves, "freedom from progression by predicted risk", config_comment)
    p = out_dir / "km_split.svg"
    p.write_text(svg, encoding="utf-8")
    written.append(p)

    for name, curve in (
        ("km_full.csv", report.curve_full),
        ("km_pred_hrm.csv", report.curve_hrm),
        ("km_pred_lrm.csv", report.curve_lrm),
    ):
        if curve is None:
            continue
        p = out_dir / name
        p.write_text(curve_csv(curve), encoding="utf-8")
        written.append(p)

    lines = ["metric,value"]
    lines.append(f"median_pred_hrm_days,{report.median_hrm_days!r}")
    lines.append(f"median_pred_lrm_days,{report.median_lrm_days!r}")
    if report.logrank is not None:
        lines.append(f"logrank_chi2,{report.logrank.chi2!r}")
        lines.append(f"logrank_p,{report.logrank.p!r}")
    else:
        lines.append("logrank_chi2,unavailable")
        lines.append("logrank_p,unavailable")
    for key in ("tp", "fn", "tn", "fp"):
        lines.append(f"confusion_{key},{report.confusion[key]}")
    lines.append(f"censored_excluded,{report.n_censored_excluded}")
    lines.append(f"unscored_samples,{report.n_unscored}")
    p = out_dir / "risk_split_metrics.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(p)
    return written
