import hashlib

import numpy as np
import pytest

from radrisk import kaplan_meier, log_rank, roc_curve
from radrisk.errors import DataError
from radrisk.evaluation import confusion_at, format_confusion, format_median_split
from radrisk.svgplot import km_plot, roc_plot
from oracles import bf_auc, bf_kaplan_meier, loop_kaplan_meier, loop_log_rank


# ---------------------------------------------------------------------------
# ROC / AUC


def test_auc_trivial_cases():
    assert roc_curve([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]).auc == pytest.approx(1.0, abs=1e-15)
    assert roc_curve([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]).auc == pytest.approx(0.5, abs=1e-15)
    assert roc_curve([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]).auc == pytest.approx(0.0, abs=1e-15)


def test_auc_hand_pairs():
    # concordant 3 of 4 positive-negative pairs
    assert roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]).auc == pytest.approx(0.75, abs=1e-15)


def test_roc_curve_shape():
    roc = roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert roc.fpr[0] == 0.0 and roc.tpr[0] == 0.0
    assert roc.fpr[-1] == 1.0 and roc.tpr[-1] == 1.0
    assert np.all(np.diff(roc.fpr) >= 0) and np.all(np.diff(roc.tpr) >= 0)
    assert roc.auc == pytest.approx(float(np.trapezoid(roc.tpr, roc.fpr)), abs=1e-15)


def test_auc_matches_pairwise_concordance():
    rng = np.random.default_rng(60)
    for trial in range(50):
        n = int(rng.integers(5, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # integer-ish scores force ties through the grouped sweep
        scores = np.round(rng.normal(size=n) * 2) / 2.0
        mine = roc_curve(scores, labels).auc
        ref = bf_auc(scores.tolist(), labels.tolist())
        assert mine == pytest.approx(ref, abs=1e-12), trial


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(61)
    scores = rng.normal(size=40)
    labels = rng.integers(0, 2, size=40)
    labels[:2] = [0, 1]
    base = roc_curve(scores, labels).auc
    assert roc_curve(np.exp(scores), labels).auc == pytest.approx(base, abs=1e-12)
    assert roc_curve(3 * scores + 7, labels).auc == pytest.approx(base, abs=1e-12)


def test_auc_single_class_errors():
    with pytest.raises(DataError, match="both classes"):
        roc_curve([0.1, 0.2], [1, 1])


def test_confusion_at_threshold():
    c = confusion_at([0.2, 0.8, 0.6, 0.1], [0, 1, 0, 1], 0.5)
    assert c == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}


# ---------------------------------------------------------------------------
# Kaplan-Meier


def test_km_all_events_hand_table():
    curve = kaplan_meier([1, 2, 3], [True, True, True])
    assert curve.times.tolist() == [1, 2, 3]
    assert curve.surv.tolist() == pytest.approx([2 / 3, 1 / 3, 0.0], abs=1e-15)
    assert curve.at_risk.tolist() == [3, 2, 1]
    assert curve.median == 2.0


def test_km_all_censored():
    curve = kaplan_meier([5, 6, 7], [False, False, False])
    assert curve.times.size == 0
    assert curve.median is None
    assert curve.survival_at(100.0) == 1.0
    assert curve.censor_times.tolist() == [5, 6, 7]


def test_km_mixed_censoring_hand_table():
    # times 1, 2+, 3: S(1) = 2/3, S(3) = 2/3 * (1 - 1/1) = 0
    curve = kaplan_meier([1, 2, 3], [True, False, True])
    assert curve.times.tolist() == [1, 3]
    assert curve.surv.tolist() == pytest.approx([2 / 3, 0.0], abs=1e-15)
    assert curve.median == 3.0


def test_km_matches_brute_force_tables():
    rng = np.random.default_rng(62)
    for trial in range(60):
        n = int(rng.integers(1, 11))
        times = rng.integers(0, 8, size=n).astype(float)
        events = rng.uniform(size=n) < 0.6
        curve = kaplan_meier(times, events)
        table = bf_kaplan_meier(times.tolist(), events.tolist())
        assert curve.times.tolist() == [t for t, _, _, _ in table]
        assert curve.at_risk.tolist() == [nr for _, nr, _, _ in table]
        for s_mine, (_, _, _, s_ref) in zip(curve.surv.tolist(), table):
            assert s_mine == pytest.approx(s_ref, abs=1e-15)


def test_km_locality_of_late_censoring():
    # the estimator does not care where beyond the last event a censoring sits
    near = kaplan_meier([1, 2, 3, 4, 5], [True, True, True, False, False])
    far = kaplan_meier([1, 2, 3, 40, 500], [True, True, True, False, False])
    assert near.times.tolist() == far.times.tolist()
    assert near.surv.tolist() == pytest.approx(far.surv.tolist(), abs=1e-15)
    assert near.at_risk.tolist() == far.at_risk.tolist()
    # and a censoring never adds a survival step
    assert near.times.tolist() == [1, 2, 3]


def test_km_greenwood_ci_bounds():
    rng = np.random.default_rng(63)
    times = rng.integers(1, 30, size=40).astype(float)
    events = rng.uniform(size=40) < 0.7
    curve = kaplan_meier(times, events)
    assert np.all(curve.ci_low <= curve.surv + 1e-12)
    assert np.all(curve.surv <= curve.ci_high + 1e-12)
    assert np.all((curve.ci_low >= 0.0) & (curve.ci_high <= 1.0))


def test_km_negative_time_rejected():
    with pytest.raises(DataError, match="negative"):
        kaplan_meier([-1.0], [True])


def _durations(rng, n, shape):
    """n survival times of one of four shapes: heavy ties, distinct, whole days, or a few values
    with both zeros (whose sorted order is kept)."""
    if shape == 0:
        return rng.integers(0, 4, size=n).astype(float)
    if shape == 1:
        return rng.exponential(300.0, size=n)
    if shape == 2:
        return np.round(rng.exponential(30.0, size=n))
    return rng.choice([0.0, -0.0, 1.0, 2.5], size=n)


SURVIVAL_ARRAYS = ("times", "surv", "at_risk", "events", "ci_low", "ci_high", "censor_times")


def test_km_equals_the_loop_bit_for_bit():
    rng = np.random.default_rng(65)
    seen = {"ties": 0, "n=1": 0, "all censored": 0, "all events": 0}
    for trial in range(2400):
        n = 1 if trial % 10 == 0 else int(rng.integers(2, 50))
        times = _durations(rng, n, trial % 4)
        events = rng.uniform(size=n) < (0.0 if trial % 9 == 0 else rng.uniform(0.1, 1.0))
        mine, ref = kaplan_meier(times, events), loop_kaplan_meier(times, events)
        for name in SURVIVAL_ARRAYS:
            a, b = getattr(mine, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (trial, name)
        assert mine.median == ref.median and mine.n == ref.n, trial
        seen["ties"] += bool(np.any(mine.events > 1))
        seen["n=1"] += n == 1
        seen["all censored"] += not events.any()
        seen["all events"] += bool(events.all())
    assert min(seen.values()) >= 200, seen


# ---------------------------------------------------------------------------
# log-rank


def test_logrank_identical_groups():
    times = [1.0, 2.0, 3.0, 4.0]
    events = [True, True, False, True]
    result = log_rank(times, events, times, events)
    assert result.chi2 == pytest.approx(0.0, abs=1e-12)
    assert result.p == pytest.approx(1.0, abs=1e-12)


def test_logrank_separated_groups():
    a_times, a_events = [1.0] * 20, [True] * 20
    b_times, b_events = [10.0] * 20, [True] * 20
    result = log_rank(a_times, a_events, b_times, b_events)
    # single informative time: O - E = 10, V = 20 * 0.25 * 20/39
    expected_chi2 = 10.0**2 / (20 * 0.25 * 20 / 39)
    assert result.chi2 == pytest.approx(expected_chi2, rel=1e-12)
    assert result.p < 1e-3


def test_logrank_label_swap_symmetry():
    rng = np.random.default_rng(64)
    ta = rng.integers(1, 20, size=15).astype(float)
    ea = rng.uniform(size=15) < 0.7
    tb = rng.integers(1, 25, size=18).astype(float)
    eb = rng.uniform(size=18) < 0.5
    ab = log_rank(ta, ea, tb, eb)
    ba = log_rank(tb, eb, ta, ea)
    assert ab.chi2 == pytest.approx(ba.chi2, abs=1e-12)
    assert ab.p == pytest.approx(ba.p, abs=1e-12)


def test_logrank_late_censoring_locality():
    # relocating censorings beyond the last event leaves the statistic unchanged
    ta, ea = [1.0, 2.0, 5.0, 7.0], [True, True, True, False]
    tb, eb = [3.0, 4.0, 6.0, 8.0], [True, True, True, False]
    base = log_rank(ta, ea, tb, eb)
    moved = log_rank([1.0, 2.0, 5.0, 70.0], ea, [3.0, 4.0, 6.0, 900.0], eb)
    assert moved.chi2 == pytest.approx(base.chi2, abs=1e-12)
    assert moved.p == pytest.approx(base.p, abs=1e-12)


def test_logrank_errors():
    with pytest.raises(DataError, match="nonempty"):
        log_rank([], [], [1.0], [True])
    with pytest.raises(DataError, match="event"):
        log_rank([1.0], [False], [2.0], [False])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_survival_time_is_a_data_error(bad):
    # the loop oracles are never given NaN: their tie pointers never advance past it
    with pytest.raises(DataError, match="non-finite survival time"):
        kaplan_meier([bad, 1.0, 2.0], [True, True, False])
    with pytest.raises(DataError, match="non-finite survival time"):
        log_rank([bad, 1.0], [True, True], [2.0, 3.0], [True, False])
    with pytest.raises(DataError, match="non-finite survival time"):
        log_rank([2.0, 3.0], [True, False], [1.0, bad], [False, False])


def test_chi2_to_p_calibration():
    # chi-square(1) critical value at p = 0.05 is 3.841458...
    result = log_rank([1.0] * 30, [True] * 30, [1.0, 2.0] * 15, [True, False] * 15)
    assert 0.0 <= result.p <= 1.0


def test_logrank_equals_the_loop_bit_for_bit():
    rng = np.random.default_rng(66)
    seen = {"ties": 0, "n=1": 0, "a group without events": 0, "no events": 0}
    for trial in range(2400):
        groups = []
        for g in range(2):
            n = 1 if (trial + g) % 10 == 0 else int(rng.integers(2, 40))
            times = _durations(rng, n, trial % 4)
            none = trial % 5 == g or trial % 50 == 49
            groups += [times, rng.uniform(size=n) < (0.0 if none else rng.uniform(0.1, 1.0))]
        if not (groups[1].any() or groups[3].any()):
            seen["no events"] += 1
            for fn in (log_rank, loop_log_rank):
                with pytest.raises(DataError, match="at least one event"):
                    fn(*groups)
            continue
        mine, ref = log_rank(*groups), loop_log_rank(*groups)
        assert mine == ref, (trial, mine, ref)
        for name in ("chi2", "p", "observed_a", "expected_a"):
            assert type(getattr(mine, name)) is float, name
        seen["ties"] += len(np.unique(np.concatenate(groups[::2]))) < groups[0].size + groups[2].size
        seen["n=1"] += min(groups[0].size, groups[2].size) == 1
        seen["a group without events"] += not (groups[1].any() and groups[3].any())
    assert min(seen.values()) >= 40, seen


# ---------------------------------------------------------------------------
# report formatting (contract only; values are not claims about any dataset)


def test_confusion_format_contract():
    text = format_confusion({"tp": 31, "fn": 9, "tn": 716, "fp": 158}, 18)
    assert "31 of 40 progressing metastases" in text
    assert "716 of 874 metastases" in text
    assert "158 mis-classified as HRM" in text
    # sensitivity 31/40 = 0.775, specificity 716/874 ~ 0.819 at this operating point
    assert 31 / 40 == pytest.approx(0.775)
    assert 716 / 874 == pytest.approx(0.819, abs=5e-4)


def test_median_split_format_contract():
    # 9.6 and 17.3 months in days under the days/30.44 convention
    text = format_median_split(9.6 * 30.44, 17.3 * 30.44, 0.004)
    assert "HRM 9.6 months" in text
    assert "LRM 17.3 months" in text
    assert "p < 0.01" in text
    assert "not reached" in format_median_split(None, 100.0, 0.5)


def test_plots_render_pinned_bytes():
    """The plots' text, pinned: two KM curves (one dashed) with CI bands and censor ticks, and a 5-point ROC."""
    low = kaplan_meier([30, 60, 60, 90, 150, 210, 240, 300], [1, 1, 0, 1, 0, 1, 0, 0])
    high = kaplan_meier([20, 45, 45, 70, 110, 130], [1, 1, 1, 0, 1, 0])
    km = km_plot([("LRM", "#3060c0", low, False), ("HRM", "#c03030", high, True)], "km pin", "config: {}")
    roc = roc_plot([0.0, 0.0, 0.5, 0.5, 1.0], [0.0, 0.5, 0.5, 1.0, 1.0], 0.75, "roc pin", "config: {}")
    assert (km.count("<polygon"), km.count("stroke-dasharray")) == (2, 2)
    assert hashlib.sha256(km.encode()).hexdigest() == "863302199b2f676dbc208f43c0c35921b8211bfca375b1fa7e58dc7fd685ee8c"
    assert hashlib.sha256(roc.encode()).hexdigest() == "5b351302a969a45ef5f1144d222ce68fda6b2523bf2f338bda7dea91c229ea33"
