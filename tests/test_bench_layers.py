"""The benchmark's traced runs wrap library functions by module attribute
(``bench/layers.py``); each of those attributes must still exist."""

import importlib
from pathlib import Path

import pytest

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
