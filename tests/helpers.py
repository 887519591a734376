"""Shared constructors for volume/mask fixtures (x-fastest flat value order),
and the JSON field swap behind the manifest and volume-header fuzz tests."""

import json
import tracemalloc

import numpy as np
from hypothesis import strategies as st

from radrisk import RoiMask, VolumeImage


def vol(values, dims, spacing=(1.0, 1.0, 1.0), modality="MR"):
    arr = np.asarray(values, dtype=np.float64).reshape(dims, order="F")
    return VolumeImage(arr, spacing, modality)


def vol3d(arr, spacing=(1.0, 1.0, 1.0), modality="MR"):
    return VolumeImage(np.asarray(arr, dtype=np.float64), spacing, modality)


def mask_of(values, dims):
    return RoiMask(np.asarray(values).reshape(dims, order="F").astype(bool))


def full_mask(dims):
    return RoiMask(np.ones(dims, dtype=bool))


def random_roi(rng, max_dim=5, n_bins=4):
    """Random small ROI as (coords-keyed level dict, DiscretizedRoi inputs)."""
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(3))
    mask = rng.uniform(size=dims) < rng.uniform(0.3, 0.9)
    if not mask.any():
        mask[tuple(int(rng.integers(0, d)) for d in dims)] = True
    values = rng.normal(size=dims)
    return dims, mask, values


def traced_peak(fn):
    """``fn()`` and the most memory it held at once beyond what was held
    before, as tracemalloc counts it: numpy reports its buffers there."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def _json_type(value):
    kinds = (("null", type(None)), ("bool", bool), ("number", (int, float)), ("string", str), ("array", list))
    return next((kind for kind, types in kinds if isinstance(value, types)), "object")


def field_paths(obj, prefix=()):
    """Every key / index path inside a JSON document, parents before children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=12),
    st.lists(st.one_of(st.integers(), st.text(max_size=6)), max_size=3),
    st.dictionaries(st.text(max_size=6), st.one_of(st.integers(), st.text(max_size=6)), max_size=3),
)


def with_field_of_another_json_type(doc, path, data):
    """A copy of ``doc`` whose value at ``path`` is drawn from another JSON type."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = data.draw(_JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
    return doc
