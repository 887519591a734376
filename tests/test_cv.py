import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radrisk import (
    ClassifierConfig,
    CvConfig,
    build_dataset,
    extract_cohort,
    feature_set,
    monte_carlo_cv,
    mrmr_select,
    risk_split_report,
    selection_cap,
    synth_cohort,
)
from radrisk import classifier, pipeline
from radrisk.pipeline import build_datasets
from radrisk.cohort import BLOCK_TAGS, FEATURE_SETS, assemble, label_samples
from radrisk.errors import ConfigError, DataError
from radrisk.featurestore import FeatureStore
from radrisk.evaluation import cv
from radrisk.evaluation.report import write_risk_split
from radrisk.features import ExtractionConfig, feature_names
from radrisk.synth import EffectConfig, SynthConfig
import oracles
from helpers import traced_peak
from oracles import (
    bf_dataset, bf_vectors, concatenated_set_matrix, copied_fold_repeat, loop_cv_tallies, loop_lesion_table,
    loop_split_lesions,
)


@pytest.fixture(scope="module")
def small_cohort():
    records = synth_cohort(seed=21, n_lesions=24,
                           effect=EffectConfig(growth=0.5, texture=2.0),
                           config=SynthConfig(hrm_fraction=0.2, exclude_fraction=0.1))
    store = extract_cohort(records, ExtractionConfig(n_bins=16, wavelet="haar"))
    return records, store


def test_cv_determinism(small_cohort):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(2))
    a = monte_carlo_cv(ds, CvConfig(repeats=4, seed=5))
    b = monte_carlo_cv(ds, CvConfig(repeats=4, seed=5))
    assert a.aucs == b.aucs
    assert a.repeat_seeds == b.repeat_seeds
    assert np.array_equal(a.oof_scores, b.oof_scores)
    c = monte_carlo_cv(ds, CvConfig(repeats=4, seed=6))
    assert c.repeat_seeds != a.repeat_seeds
    assert not np.array_equal(c.oof_scores, a.oof_scores)


def test_cv_threads_do_not_change_results(small_cohort):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(2))
    a = monte_carlo_cv(ds, CvConfig(repeats=6, seed=5, threads=1))
    b = monte_carlo_cv(ds, CvConfig(repeats=6, seed=5, threads=3))
    assert a.aucs == b.aucs
    assert np.array_equal(a.oof_scores, b.oof_scores)


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_are_config_errors(threads):
    with pytest.raises(ConfigError, match="threads must be >= 1"):
        CvConfig(threads=threads)
    records = synth_cohort(seed=3, n_lesions=3, effect=EffectConfig(), config=SynthConfig())
    with pytest.raises(ConfigError, match="threads must be >= 1"):
        extract_cohort(records, ExtractionConfig(n_bins=8, wavelet="none"), threads=threads)


def test_a_negative_seed_is_a_config_error():
    # numpy's generators refuse it with a ValueError, which would end a command in a traceback
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        CvConfig(seed=-1)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        synth_cohort(seed=-1, n_lesions=3)


def test_extraction_failures_come_in_job_order_at_any_threads(monkeypatch):
    records = synth_cohort(seed=3, n_lesions=3, effect=EffectConfig(), config=SynthConfig())
    jobs = list(pipeline.image_jobs(records))
    first, second = (source.load()[0].voxels for *_, source in jobs[:2])
    normalize = pipeline.normalize_volume

    def slow_first_two_fail(img, role, cfg):  # the first job finishes last, the second first
        if np.array_equal(img.voxels, first):
            time.sleep(0.3)
            raise DataError("first image")
        if np.array_equal(img.voxels, second):
            raise DataError("second image")
        return normalize(img, role, cfg)

    monkeypatch.setattr(pipeline, "normalize_volume", slow_first_two_fail)
    config = ExtractionConfig(n_bins=8, wavelet="none")
    runs = {}
    for threads in (1, 4):
        failures: list[str] = []
        store = extract_cohort(records, config, threads=threads, failures=failures)
        runs[threads] = failures, store.keys
    assert runs[4] == runs[1]
    assert [f.split("]")[0] for f in runs[1][0]] == [f"[extract {'/'.join(job[:3])}" for job in jobs[:2]]


def test_cv_lesion_grouping_guard(small_cohort):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(2))
    report = monte_carlo_cv(ds, CvConfig(repeats=8, seed=7))
    assert report.straddle_counts == [0] * 8
    assert len(report.aucs) == 8
    assert report.mean_auc == pytest.approx(float(np.mean(report.aucs)), abs=1e-15)


def test_split_equals_the_lesion_set_loop(small_cohort):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(2))
    order = np.random.default_rng(4).permutation(ds.n_samples)  # lesions no longer contiguous
    shuffled = dataclasses.replace(ds, X=ds.X[order], y=ds.y[order], lesion_ids=[ds.lesion_ids[i] for i in order])
    for data in (ds, shuffled):
        lesion_of, flags = cv._lesion_table(data)
        lesions, ref_flags = loop_lesion_table(data)
        assert [lesions[k] for k in lesion_of] == data.lesion_ids
        assert np.array_equal(flags, ref_flags)
        for seed in range(40):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):  # successive splits draw on from the same generator
                in_test = cv._split_lesions(flags, 1.0 / 3.0, rng)[lesion_of]
                test = loop_split_lesions(lesions, ref_flags, 1.0 / 3.0, ref_rng)
                assert np.array_equal(in_test, [lid in test for lid in data.lesion_ids]), seed


@st.composite
def _lesion_tables(draw):
    """A table that ``monte_carlo_cv`` accepts: 2-7 ever-HRM lesions (each with >= 1 HRM sample) and
    2-39 other lesions, 1-4 samples each, in any sample order; and a ``test_frac`` in (0, 1)."""
    n_hrm, n_lrm = draw(st.integers(2, 7)), draw(st.integers(2, 39))
    lesion_ids, y = [], []
    for k in range(n_hrm + n_lrm):
        n = draw(st.integers(1, 4))
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) if k < n_hrm else [0] * n
        if k < n_hrm and not any(labels):
            labels[draw(st.integers(0, n - 1))] = 1
        lesion_ids += [f"L{k}"] * n
        y += labels
    order = draw(st.permutations(range(len(y))))
    test_frac = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return [lesion_ids[i] for i in order], np.asarray([y[i] for i in order]), CvConfig(test_frac=test_frac)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=_lesion_tables(), seed=st.integers(0, 2**31 - 2))
def test_every_split_holds_both_classes_in_both_folds(table, seed):
    # the guarantee that lets a repeat draw its split once
    lesion_ids, y, cv_cfg = table
    lesion_of, flags = cv._lesion_table(SimpleNamespace(lesion_ids=lesion_ids, y=y))
    in_test = cv._split_lesions(flags, cv_cfg.test_frac, np.random.default_rng(seed))[lesion_of]
    assert set(y[in_test]) == set(y[~in_test]) == {0, 1}


def test_cv_tallies_equal_the_per_repeat_loop(small_cohort):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(2))
    cv_cfg, clf_cfg = CvConfig(repeats=8, seed=13), ClassifierConfig(threshold=0.2)
    report = monte_carlo_cv(ds, cv_cfg, clf_cfg)
    lesion_of, flags = cv._lesion_table(ds)
    results = [cv._one_repeat(ds, lesion_of, flags, seed, cv_cfg, clf_cfg, None)
               for seed in report.repeat_seeds]
    assert [r[0] for r in results] == report.aucs
    oof, counts, confusion = loop_cv_tallies(results, ds.y, clf_cfg.threshold)
    assert oof.dtype == report.oof_scores.dtype and oof.tobytes() == report.oof_scores.tobytes()
    assert counts.dtype == report.oof_counts.dtype and counts.tobytes() == report.oof_counts.tobytes()
    assert list(confusion.items()) == list(report.confusion.items())
    assert counts.max() > 1 and (counts == 0).any()  # samples scored in several repeats, and in none


@pytest.mark.parametrize("set_id", [1, 7])
def test_fold_path_equals_the_copied_folds(small_cohort, set_id):
    # selection on the fold's rows, the fit and the scores on the picked columns
    # only: every result of a repeat is the same bits as with the folds copied whole
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(set_id))
    f_ordered = dataclasses.replace(ds, X=np.asfortranarray(ds.X))
    cv_cfg, clf_cfg = CvConfig(), ClassifierConfig()
    for data in (ds, f_ordered):
        lesion_of, flags = cv._lesion_table(data)
        cap = selection_cap(data.n_samples, cv_cfg.per_samples)
        for global_selection in (None, mrmr_select(data.X, data.y, cap, data.feature_names)):
            for seed in range(6):
                args = (data, lesion_of, flags, seed, cv_cfg, clf_cfg, global_selection)
                got, want = cv._one_repeat(*args), copied_fold_repeat(*args)
                for k in (0, 2, 5):  # AUC, scores, KKT residual
                    assert np.array_equal(_bits(got[k]), _bits(want[k])), (seed, k)
                assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1]), seed  # test rows
                # straddle count, selected names, iterations
                assert [got[k] for k in (3, 4, 6)] == [want[k] for k in (3, 4, 6)], seed


def test_nonconverged_fits_reported(small_cohort, caplog):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(2))
    converged = monte_carlo_cv(ds, CvConfig(repeats=4, seed=3))
    assert converged.nonconverged_fits == 0
    assert 0.0 < converged.max_kkt_residual < ClassifierConfig().tol
    with caplog.at_level("WARNING"):
        capped = monte_carlo_cv(ds, CvConfig(repeats=4, seed=3), clf_cfg=ClassifierConfig(max_epochs=1))
    assert capped.nonconverged_fits == 4
    assert capped.max_kkt_residual >= ClassifierConfig().tol
    assert capped.to_dict()["nonconverged_fits"] == 4
    assert capped.to_dict()["max_kkt_residual"] == capped.max_kkt_residual
    warnings = [m for m in caplog.messages if "classifier fits" in m]
    assert len(warnings) == 1 and "set 2: 4 of 4" in warnings[0]


def test_max_solver_iterations_reported(small_cohort, monkeypatch, caplog):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(2))
    iterations = []
    real_fit = classifier.fit

    def recording_fit(*args, **kwargs):
        model = real_fit(*args, **kwargs)
        iterations.append(model.epochs_run)
        return model

    monkeypatch.setattr(classifier, "fit", recording_fit)
    report = monte_carlo_cv(ds, CvConfig(repeats=4, seed=3))
    assert len(iterations) == 4
    assert report.max_solver_iterations == max(iterations) > 1
    assert report.to_dict()["max_solver_iterations"] == report.max_solver_iterations
    with caplog.at_level("WARNING"):
        capped = monte_carlo_cv(ds, CvConfig(repeats=4, seed=3), clf_cfg=ClassifierConfig(max_epochs=1))
    assert capped.max_solver_iterations == 1
    warnings = [m for m in caplog.messages if "classifier fits" in m]
    assert len(warnings) == 1 and "did not reach the KKT tolerance (iteration cap 1)" in warnings[0]


def test_nan_kkt_residual_counts_as_nonconverged(small_cohort, monkeypatch):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(2))
    real_fit = classifier.fit

    def nan_residual_fit(*args, **kwargs):
        model = real_fit(*args, **kwargs)
        model.kkt_residual = float("nan")
        return model

    monkeypatch.setattr(classifier, "fit", nan_residual_fit)
    assert monte_carlo_cv(ds, CvConfig(repeats=4, seed=3)).nonconverged_fits == 4


def test_cv_requires_two_lesions_per_class(small_cohort):
    records, store = small_cohort
    few = [r for r in records if r.event_date is None][:6]
    one_hot = [r for r in records if r.event_date is not None][:1]
    ds = build_dataset(few + one_hot, store, feature_set(1))
    with pytest.raises(DataError, match="lesions per class"):
        monte_carlo_cv(ds, CvConfig(repeats=2, seed=1))


def test_planted_signal_recovered(small_cohort):
    records, store = small_cohort
    ds7 = build_dataset(records, store, feature_set(7))
    rep7 = monte_carlo_cv(ds7, CvConfig(repeats=10, seed=9))
    assert rep7.mean_auc >= 0.9
    ds1 = build_dataset(records, store, feature_set(1))
    rep1 = monte_carlo_cv(ds1, CvConfig(repeats=10, seed=9))
    assert rep1.mean_auc <= 0.7


def test_global_selection_flag(small_cohort):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(2))
    rep = monte_carlo_cv(ds, CvConfig(repeats=3, seed=2, per_fold=False))
    assert len(rep.aucs) == 3


def test_ct_missing_lesions_excluded():
    records = synth_cohort(seed=22, n_lesions=16,
                           config=SynthConfig(hrm_fraction=0.25, ct_missing_fraction=0.3))
    store = extract_cohort(records, ExtractionConfig(n_bins=8, wavelet="none"))
    missing = [r.lesion_id for r in records if r.planning_ct is None]
    assert missing
    ds5 = build_dataset(records, store, feature_set(5))
    assert set(ds5.excluded_lesions) == set(missing)
    assert not set(ds5.lesion_ids) & set(missing)
    ds2 = build_dataset(records, store, feature_set(2))
    assert ds2.excluded_lesions == []
    assert set(ds2.lesion_ids) & set(missing)


@pytest.fixture(scope="module")
def ct_missing_cohort():
    records = synth_cohort(seed=22, n_lesions=16,
                           config=SynthConfig(hrm_fraction=0.25, ct_missing_fraction=0.3))
    return records, extract_cohort(records, ExtractionConfig(n_bins=8, wavelet="haar"))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("cohort", ["small_cohort", "ct_missing_cohort"])
@pytest.mark.parametrize("set_id", sorted(FEATURE_SETS))
def test_build_dataset_matches_oracle(cohort, set_id, request):
    records, store = request.getfixturevalue(cohort)
    ds = build_dataset(records, store, feature_set(set_id))
    labeling = label_samples(records)
    names, rows, y, times, events, lesion_ids = bf_dataset(
        records, labeling.samples, bf_vectors(store.names, store.keys, store.values), FEATURE_SETS[set_id])
    # the same set taken from one call over every set, and from one over some sets out of order
    together = [build_datasets(records, store, [feature_set(s) for s in order])[order.index(set_id)]
                for order in (sorted(FEATURE_SETS), (5, 1, 7)) if set_id in order]
    for got in [ds, *together]:
        assert got.set_id == set_id and got.feature_names == names
        assert np.array_equal(_bits(got.X), _bits(rows))  # bit for bit
        assert got.X.flags.c_contiguous  # reductions over X round by its layout
        assert got.y.tolist() == y and got.events.tolist() == events
        assert np.array_equal(_bits(got.times), _bits(times))
        assert got.lesion_ids == lesion_ids
        assert got.column_blocks == ds.column_blocks
        assert got.km_censored == ds.km_censored and got.excluded_lesions == ds.excluded_lesions
    excluded = [r.lesion_id for r in records if r.planning_ct is None and "planning_ct" in FEATURE_SETS[set_id]]
    assert ds.excluded_lesions == excluded and not set(excluded) & set(lesion_ids)
    assert ds.km_censored == [p for p in labeling.km_censored if p.lesion_id not in excluded]
    if cohort == "ct_missing_cohort" and "planning_ct" in FEATURE_SETS[set_id]:
        assert ds.excluded_lesions


def _without(store, drop):
    keep = [k for k, key in enumerate(store.keys) if key not in drop]
    return FeatureStore(store.names, [store.keys[k] for k in keep], store.values[keep])


def _planned_on_first_followup(records, store, lesion_id):
    """The cohort and its store with the lesion's planning images dated on its first follow-up."""
    rec = next(r for r in records if r.lesion_id == lesion_id)
    day = rec.followups[0].date
    keys = [(lid, role, day.isoformat() if lid == lesion_id and role != "followup" else date)
            for lid, role, date in store.keys]
    moved = [dataclasses.replace(r, planning_date=day) if r is rec else r for r in records]
    return moved, FeatureStore(store.names, keys, store.values)


def test_build_dataset_errors(ct_missing_cohort):
    records, store = ct_missing_cohort
    with_ct = next(r for r in records if r.planning_ct is not None and r.followups)
    fu_key = (with_ct.lesion_id, "followup", with_ct.followups[0].date.isoformat())
    with pytest.raises(DataError, match=f"missing images for {with_ct.lesion_id}"):
        build_dataset(records, _without(store, {fu_key}), feature_set(1))
    ct_key = (with_ct.lesion_id, "planning_ct", with_ct.planning_date.isoformat())
    no_ct = _without(store, {ct_key})
    with pytest.raises(DataError, match=rf"^\[assemble {with_ct.lesion_id}/.*requires the planning_ct block"):
        build_dataset(records, no_ct, feature_set(5))
    assert build_dataset(records, no_ct, feature_set(4)).n_samples > 0
    with pytest.raises(DataError, match=rf"^\[assemble {with_ct.lesion_id}/.*set 5 requires the planning_ct"):
        build_datasets(records, no_ct, [feature_set(4), feature_set(5)])
    only_missing_ct = [r for r in records if r.planning_ct is None]
    with pytest.raises(DataError, match="no usable samples"):
        build_dataset(only_missing_ct, store, feature_set(5))
    with pytest.raises(DataError, match="no usable samples"):
        build_datasets(only_missing_ct, store, [feature_set(5)])
    assert build_datasets(only_missing_ct, store, [feature_set(1)])[0].n_samples > 0
    # a non-finite value names the first sample and the column that hold one
    nan_store = FeatureStore(store.names, store.keys, store.values.copy())
    nan_store.values[store.keys.index(fu_key), 3] = np.nan
    fu_date = with_ct.followups[0].date
    nan_error = (rf"^\[assemble {with_ct.lesion_id}/{fu_date}\] non-finite value nan "
                 rf"in column {BLOCK_TAGS['followup_mr']}-{store.names[3]}$")
    with pytest.raises(DataError, match=nan_error):
        build_dataset(records, nan_store, feature_set(2))
    assert build_dataset(records, nan_store, feature_set(1)).n_samples > 0  # the column is not in set 1
    # several sets raise the error of the first one, in the order given, that fails alone
    with pytest.raises(DataError, match=nan_error):
        build_datasets(records, nan_store, [feature_set(1), feature_set(2)])
    assert build_datasets(records, nan_store, [feature_set(1)])[0].n_samples > 0
    nan_no_ct = _without(nan_store, {ct_key})
    with pytest.raises(DataError, match=nan_error):
        build_datasets(records, nan_no_ct, [feature_set(2), feature_set(5)])
    with pytest.raises(DataError, match="set 5 requires the planning_ct block"):
        build_datasets(records, nan_no_ct, [feature_set(5), feature_set(2)])
    # a follow-up on the planning day has no elapsed days: only a set that keeps it with the delta block fails
    for rec in (with_ct, next(r for r in records if r.planning_ct is None)):
        same_day, same_day_store = _planned_on_first_followup(records, store, rec.lesion_id)
        assert build_dataset(same_day, same_day_store, feature_set(2)).n_samples > 0
        with pytest.raises(DataError, match="elapsed days must be > 0, got 0"):
            build_datasets(same_day, same_day_store, [feature_set(2), feature_set(3)])
    assert build_datasets(same_day, same_day_store, [feature_set(7)])[0].n_samples > 0  # the lesion has no CT


def _with_columns(store, cols):
    """The store with the columns ``cols`` alone, in that order."""
    return FeatureStore([store.names[k] for k in cols], store.keys, store.values[:, cols])


def _prefixed(store, prefix):
    return _with_columns(store, [k for k, name in enumerate(store.names) if name.startswith(prefix)])


@pytest.mark.parametrize("cohort", ["small_cohort", "ct_missing_cohort"])
@pytest.mark.parametrize("interleaved", [False, True], ids=["contiguous", "interleaved"])
def test_set_matrix_has_the_bits_of_the_concatenated_gathers(cohort, interleaved, request):
    records, store = request.getfixturevalue(cohort)
    if interleaved:  # the columns shuffled, so original and wavelet columns interleave
        store = _with_columns(store, np.random.default_rng(5).permutation(len(store.names)))
    specs = [feature_set(s) for s in sorted(FEATURE_SETS)]
    for spec, ds in zip(specs, build_datasets(records, store, specs)):
        want = concatenated_set_matrix(records, store, spec)
        assert ds.X.flags.c_contiguous and ds.X.shape == want.shape, spec.set_id
        assert np.array_equal(_bits(ds.X), _bits(want)), spec.set_id
    # the contiguous table's segments are slices of its columns; the interleaved one's are not
    ranges = [cols[-1] - cols[0] == len(cols) - 1 for *_, cols in assemble(feature_set(7), store.names)]
    assert all(ranges) != interleaved


def test_the_widest_set_is_built_without_a_second_copy():
    # planted-cohort size: 150 lesions, ~290 samples x 3092 columns
    records = synth_cohort(seed=21, n_lesions=150)
    keys = [job[:3] for job in pipeline.image_jobs(records)]
    names = feature_names(ExtractionConfig(wavelet="haar"))
    store = FeatureStore(names, keys, np.random.default_rng(0).normal(size=(len(keys), len(names))))
    (ds,), peak = traced_peak(lambda: build_datasets(records, store, [feature_set(7)]))
    assert ds.X.shape[1] == 3092
    assert peak <= 2.25 * ds.X.nbytes, peak / ds.X.nbytes


def test_a_set_needs_columns_for_each_of_its_blocks(ct_missing_cohort):
    records, store = ct_missing_cohort
    plain = _prefixed(store, "original-")
    plain.settings = ExtractionConfig(n_bins=8, wavelet="none")
    assert build_dataset(records, plain, feature_set(6)).n_samples > 0
    with pytest.raises(DataError, match=r"^feature set 7 has the wavelet block.*wavelet 'none'"):
        build_datasets(records, plain, [feature_set(6), feature_set(7)])
    plain.settings = None
    with pytest.raises(DataError, match="feature set 7 has the wavelet block.*no recorded wavelet"):
        build_dataset(records, plain, feature_set(7))
    # a hand-made table without the original columns
    wavelet_only = _prefixed(store, "wavelet-")
    assert build_dataset(records, wavelet_only, feature_set(1)).n_samples > 0
    with pytest.raises(DataError, match="^feature set 3 has the delta block"):
        build_dataset(records, wavelet_only, feature_set(3))


def _recorded_fits(monkeypatch, dataset, cv_cfg, clf_cfg):
    """Every model that the cross-validation fits, in fit order."""
    models, fit = [], classifier.fit

    def recording_fit(*args):
        models.append(fit(*args))
        return models[-1]

    with monkeypatch.context() as patch:
        patch.setattr(classifier, "fit", recording_fit)
        monte_carlo_cv(dataset, cv_cfg, clf_cfg)
    return models


@pytest.mark.parametrize("C", [1.0, 1e2, 1e4])
def test_fits_on_planted_folds_keep_the_bits_of_the_first_solver(small_cohort, monkeypatch, C):
    records, store = small_cohort
    specs = [feature_set(s) for s in sorted(FEATURE_SETS)]
    for ds in build_datasets(records, store, specs):
        cv_cfg, clf_cfg = CvConfig(repeats=3, seed=ds.set_id), ClassifierConfig(C=C)
        got = _recorded_fits(monkeypatch, ds, cv_cfg, clf_cfg)
        with monkeypatch.context() as patch:
            patch.setattr(classifier, "_solve_dual", oracles._solve_dual)
            want = _recorded_fits(monkeypatch, ds, cv_cfg, clf_cfg)
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert np.array_equal(_bits(a.w), _bits(b.w)) and _bits(a.b) == _bits(b.b), ds.set_id
            assert _bits(a.kkt_residual) == _bits(b.kkt_residual) and a.epochs_run == b.epochs_run, ds.set_id


def test_risk_split_report_and_files(small_cohort, tmp_path):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(7))
    rep = monte_carlo_cv(ds, CvConfig(repeats=12, seed=3))
    split = risk_split_report(ds, rep.oof_scores, rep.oof_counts, 0.0)
    assert split.curve_hrm is not None and split.curve_lrm is not None
    # the planted signal puts predicted-HRM events earlier
    assert split.logrank is not None
    assert split.curve_full.n == ds.n_samples + len(ds.km_censored)
    written = write_risk_split(split, tmp_path, "config: {}")
    names = {p.name for p in written}
    assert "km_split.svg" in names and "risk_split_metrics.csv" in names
    svg = (tmp_path / "km_split.svg").read_text(encoding="utf-8")
    assert svg.startswith("<?xml") and "</svg>" in svg
    assert "config:" in svg
    metrics = (tmp_path / "risk_split_metrics.csv").read_text(encoding="utf-8")
    assert "logrank_p" in metrics


def test_risk_split_single_group_marks_logrank_unavailable(small_cohort):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(1))
    scores = np.full(ds.n_samples, 5.0)  # everything predicted HRM
    counts = np.ones(ds.n_samples, dtype=int)
    split = risk_split_report(ds, scores, counts, 0.0)
    assert split.curve_lrm is None
    assert split.logrank is None
    assert "log-rank unavailable" in split.summary_lines()[0]


def test_zero_effect_cohort_gives_chance_auc():
    records = synth_cohort(seed=27, n_lesions=36,
                           effect=EffectConfig(growth=0.0, texture=1.0),
                           config=SynthConfig(hrm_fraction=0.2))
    store = extract_cohort(records, ExtractionConfig(n_bins=8, wavelet="none"))
    ds = build_dataset(records, store, feature_set(2))
    rep = monte_carlo_cv(ds, CvConfig(repeats=20, seed=8))
    assert 0.35 <= rep.mean_auc <= 0.65


def test_permuted_labels_yield_chance_auc(small_cohort):
    records, store = small_cohort
    ds = build_dataset(records, store, feature_set(2))
    rng = np.random.default_rng(99)
    ds_perm = build_dataset(records, store, feature_set(2))
    perm = rng.permutation(ds.n_samples)
    ds_perm.y = ds.y[perm]
    ds_perm.times = ds.times[perm]
    ds_perm.events = ds.events[perm]
    if len(np.unique(ds_perm.y)) < 2:
        pytest.skip("degenerate permutation")
    rep = monte_carlo_cv(ds_perm, CvConfig(repeats=8, seed=4))
    assert 0.2 <= rep.mean_auc <= 0.8  # loose unit-level bound; tight one in acceptance
