"""What whole-cohort (global) selection buys on outcomes that carry no signal.

Criterion 9's null: the planted cohort's set 7 with its outcome triple (label,
time, event) drawn afresh for every one-repeat CV, seeds from
``default_rng(10_000 + seed)``. Per-fold selection must stay inside
criterion 9's band; selecting once on every sample before the CV must read
above it, the selection bias of Ambroise and McLachlan (PNAS 99, 2002).
``pytest tests/test_leakage.py -s`` prints the per-seed mean AUCs that
README's leakage table quotes.
"""

import dataclasses

import numpy as np
import pytest

import radrisk as rr

SEEDS = range(4)  # criterion 9's first four seeds
REPEATS = 12  # criterion 9's permutations per seed


@pytest.fixture(scope="module")
def planted_set7():
    records = rr.synth_cohort(seed=20260808, n_lesions=150, effect=rr.EffectConfig(growth=0.5, texture=2.0),
                              config=rr.SynthConfig(hrm_fraction=0.10, exclude_fraction=0.05))
    store = rr.extract_cohort(records, rr.ExtractionConfig(n_bins=32, wavelet="haar"))
    return rr.build_dataset(records, store, rr.feature_set(7))


def _null_mean_aucs(ds, per_fold: bool) -> list[float]:
    """Each seed's mean AUC over its permutations, each a one-repeat CV as criterion 9 draws it."""
    means = []
    for seed in SEEDS:
        rng = np.random.default_rng(10_000 + seed)
        aucs = []
        for _ in range(REPEATS):
            perm = rng.permutation(ds.n_samples)
            null = dataclasses.replace(ds, y=ds.y[perm], times=ds.times[perm], events=ds.events[perm])
            cv = rr.CvConfig(repeats=1, seed=int(rng.integers(0, 2**31 - 1)), per_fold=per_fold)
            aucs.append(rr.monte_carlo_cv(null, cv).mean_auc)
        means.append(float(np.mean(aucs)))
    return means


def test_global_selection_reads_signal_in_noise(planted_set7):
    per_fold = _null_mean_aucs(planted_set7, per_fold=True)
    global_ = _null_mean_aucs(planted_set7, per_fold=False)
    print(f"\nper-fold selection: mean AUC {np.mean(per_fold):.3f}, per seed {[round(a, 3) for a in per_fold]}")
    print(f"global selection:   mean AUC {np.mean(global_):.3f}, per seed {[round(a, 3) for a in global_]}")
    assert 0.4 <= np.mean(per_fold) <= 0.6, per_fold
    assert np.mean(global_) > 0.6, global_
