"""The benchmark's traced runs wrap library functions by module attribute
(``bench/layers.py``); each of those attributes must still exist, and the
extraction layers must still be reached through them."""

import importlib
from pathlib import Path

import pytest

from radrisk.cli import main
from radrisk.cohort import load_manifest
from radrisk.features import ExtractionConfig
from radrisk.pipeline import extract_cohort, image_jobs

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # layers.py imports its sibling spans.py
        return importlib.import_module("layers")


def test_every_layer_hook_target_resolves(layers):
    assert layers.LAYER_HOOKS
    for hook in layers.LAYER_HOOKS:
        module_name, attr = hook.target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{hook.target} (layer {hook.layer}) does not resolve"


def test_extraction_layer_hooks_count_every_image(layers, monkeypatch, tmp_path):
    """A hooked name that resolves but is off the call path would read 0 calls in a traced run."""
    assert main(["synth", "--seed", "2", "--lesions", "3", "--out", str(tmp_path)]) == 0
    records = load_manifest(tmp_path / "manifest.json")
    targets = {hook.target for hook in layers.LAYER_HOOKS}
    calls = {}
    for target in ("radrisk.cohort.read_volume", "radrisk.pipeline.normalize_volume", "radrisk.pipeline.extract_all"):
        assert target in targets
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        calls[target] = 0

        def counted(*args, _layer=getattr(module, attr), _target=target, **kwargs):
            calls[_target] += 1
            return _layer(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    store = extract_cohort(records, ExtractionConfig(n_bins=8, wavelet="none"), base_dir=tmp_path)
    images = len(list(image_jobs(records)))
    assert len(store.keys) == images
    assert calls == dict.fromkeys(calls, images)
