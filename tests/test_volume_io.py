import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from radrisk import DataError, RoiMask, VolumeImage, read_mask, read_volume, write_volume
from radrisk import volume as volume_module
from helpers import field_paths, traced_peak, vol, with_field_of_another_json_type
from oracles import strided_read_volume


def test_rawjson_identity_roundtrip(tmp_path):
    # 2x2x1 with voxels [0,1,2,3] in x-fastest order, spacing (1,1,1)
    raw = np.array([0, 1, 2, 3], dtype="<f4").tobytes()
    (tmp_path / "v.raw").write_bytes(raw)
    (tmp_path / "v.json").write_text(json.dumps({
        "dims": [2, 2, 1], "spacing": [1, 1, 1], "dtype": "f32", "data_file": "v.raw",
    }))
    img = read_volume(tmp_path / "v.json")
    assert img.dims == (2, 2, 1)
    assert img.spacing == (1.0, 1.0, 1.0)
    assert img.voxels[0, 0, 0] == 0 and img.voxels[1, 0, 0] == 1
    assert img.voxels[0, 1, 0] == 2 and img.voxels[1, 1, 0] == 3


def test_rawjson_write_read_bit_identical(tmp_path):
    rng = np.random.default_rng(11)
    img = vol(rng.normal(size=24).astype(np.float32), (2, 3, 4), spacing=(0.5, 1.25, 2.0))
    p = write_volume(img, tmp_path / "a.json", "rawjson")
    back = read_volume(p)
    assert np.array_equal(back.voxels, img.voxels)
    assert back.spacing == img.spacing
    # write the read volume again: payload bytes must be identical
    write_volume(back, tmp_path / "b.json", "rawjson")
    assert (tmp_path / "a.raw").read_bytes() == (tmp_path / "b.raw").read_bytes()


def _independent_nifti(path, dims, spacing, voxels, datatype=16, slope=1.0, inter=0.0):
    """Header writer kept independent of the library (field-by-field struct)."""
    hdr = bytearray(352)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, datatype)
    struct.pack_into("<h", hdr, 72, {4: 16, 16: 32}[datatype])
    struct.pack_into("<8f", hdr, 76, 1.0, spacing[0], spacing[1], spacing[2], 0, 0, 0, 0)
    struct.pack_into("<f", hdr, 108, 352.0)
    struct.pack_into("<2f", hdr, 112, slope, inter)
    hdr[344:348] = b"n+1\x00"
    np_dtype = {4: "<i2", 16: "<f4"}[datatype]
    path.write_bytes(bytes(hdr) + np.asarray(voxels, dtype=np_dtype).tobytes())


def test_nifti_read_against_independent_writer(tmp_path):
    voxels = np.arange(32, dtype=np.float32)
    _independent_nifti(tmp_path / "x.nii", (4, 4, 2), (2.0, 2.0, 2.0), voxels)
    img = read_volume(tmp_path / "x.nii")
    assert img.dims == (4, 4, 2)
    assert img.spacing == (2.0, 2.0, 2.0)
    assert np.array_equal(img.voxels.ravel(order="F"), voxels.astype(np.float64))


def test_nifti_int16_and_scaling(tmp_path):
    voxels = np.arange(-4, 4, dtype=np.int16)
    _independent_nifti(tmp_path / "i.nii", (2, 2, 2), (1.0, 1.0, 1.0), voxels, datatype=4)
    img = read_volume(tmp_path / "i.nii")
    assert np.array_equal(img.voxels.ravel(order="F"), voxels.astype(np.float64))


def test_nifti_roundtrip_value_exact(tmp_path):
    rng = np.random.default_rng(5)
    img = vol(rng.normal(size=60).astype(np.float32), (3, 4, 5), spacing=(0.9, 1.1, 3.0))
    p = write_volume(img, tmp_path / "r.nii", "nifti1")
    back = read_volume(p)
    assert np.array_equal(back.voxels, img.voxels)
    assert back.spacing == pytest.approx(img.spacing)


def test_read_volume_builds_one_float64_volume_beside_the_file(tmp_path):
    """Reading a 128x128x64 float32 NIfTI holds the file's bytes and one float64 volume (1.125 volumes beyond
    the file measured, with the image's finiteness mask): the image holds the read-only array the reader built.
    A second copy took 2.0."""
    dims = (128, 128, 64)
    path = write_volume(VolumeImage(np.random.default_rng(3).normal(size=dims)), tmp_path / "v.nii")
    img, peak = traced_peak(lambda: read_volume(path))
    assert peak <= path.stat().st_size + 1.25 * img.voxels.nbytes


def test_an_image_copies_any_array_that_could_change_under_it():
    """Only a read-only float64 array that owns its C-ordered data is held as it is."""
    base = np.random.default_rng(4).normal(size=(4, 3, 2))
    held = base.copy()
    held.flags.writeable = False
    assert VolumeImage(held).voxels is held
    view = base.view()
    view.flags.writeable = False
    for voxels in (base, view, np.asfortranarray(held), held.astype(np.float32)):
        img = VolumeImage(voxels)
        assert img.voxels is not voxels and not img.voxels.flags.writeable and img.voxels.flags.c_contiguous
    img, want = VolumeImage(view), base.copy()
    base += 1.0
    assert np.array_equal(img.voxels, want)


def test_nifti_bad_magic(tmp_path):
    voxels = np.zeros(8, dtype=np.float32)
    _independent_nifti(tmp_path / "bad.nii", (2, 2, 2), (1, 1, 1), voxels)
    data = bytearray((tmp_path / "bad.nii").read_bytes())
    data[344:348] = b"bad\x00"
    (tmp_path / "bad.nii").write_bytes(bytes(data))
    with pytest.raises(DataError, match="magic"):
        read_volume(tmp_path / "bad.nii")


def test_nifti_unsupported_datatype(tmp_path):
    voxels = np.zeros(8, dtype=np.float32)
    _independent_nifti(tmp_path / "dt.nii", (2, 2, 2), (1, 1, 1), voxels)
    data = bytearray((tmp_path / "dt.nii").read_bytes())
    struct.pack_into("<h", data, 70, 64)  # float64: out of scope
    (tmp_path / "dt.nii").write_bytes(bytes(data))
    with pytest.raises(DataError, match="scalar type"):
        read_volume(tmp_path / "dt.nii")


def test_nifti_nonfinite_rejected(tmp_path):
    voxels = np.array([np.nan] + [0.0] * 7, dtype=np.float32)
    _independent_nifti(tmp_path / "nan.nii", (2, 2, 2), (1, 1, 1), voxels)
    with pytest.raises(DataError, match="non-finite"):
        read_volume(tmp_path / "nan.nii")


def test_truncated_payload(tmp_path):
    voxels = np.zeros(8, dtype=np.float32)
    _independent_nifti(tmp_path / "t.nii", (2, 2, 2), (1, 1, 1), voxels)
    data = (tmp_path / "t.nii").read_bytes()
    (tmp_path / "t.nii").write_bytes(data[:-8])
    with pytest.raises(DataError, match="truncated"):
        read_volume(tmp_path / "t.nii")


def _patched_nifti(tmp_path, fmt, offset, *values):
    """A 2x2x2 float32 NIfTI file with ``values`` packed into its header at ``offset``."""
    path = tmp_path / "p.nii"
    _independent_nifti(path, (2, 2, 2), (1, 1, 1), np.zeros(8, dtype=np.float32))
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, *values)
    path.write_bytes(bytes(data))
    return path


def _sized_rawjson(tmp_path, n_bytes):
    (tmp_path / "s.raw").write_bytes(bytes(n_bytes))
    (tmp_path / "s.json").write_text(json.dumps({"dims": [2, 2, 2], "spacing": [1, 1, 1], "dtype": "f32",
                                                 "data_file": "s.raw"}))
    return tmp_path / "s.json"


def _written(path, data: bytes):
    path.write_bytes(data)
    return path


# Each builds a file that both readers refuse, or a call that is refused, and the cause the error names.
_IO_REFUSALS = {
    "mask-not-3d": (lambda tmp: lambda: RoiMask(np.ones((2, 2), dtype=bool)), r"mask must be 3D .* \(2, 2\)"),
    "unknown-suffix": (lambda tmp: _written(tmp / "v.txt", b"{}"), r"cannot infer volume format from 'v.txt'"),
    "missing-file": (lambda tmp: tmp / "absent.nii", r"volume file not found"),
    "write-unknown-format": (lambda tmp: lambda: write_volume(vol(np.zeros(8), (2, 2, 2)), tmp / "v.json", "analyze"),
                             r"unsupported volume format 'analyze'"),
    "rawjson-payload-size": (lambda tmp: _sized_rawjson(tmp, 28), r"RAWJSON payload size 28 != 32 bytes"),
    "nifti-too-short": (lambda tmp: _written(tmp / "s.nii", bytes(351)), r"NIfTI file too short \(351 bytes\)"),
    "nifti-big-endian": (lambda tmp: _patched_nifti(tmp, ">i", 0, 348), r"sizeof_hdr=1543569408; big-endian"),
    "nifti-dim0-2": (lambda tmp: _patched_nifti(tmp, "<h", 40, 2), r"unsupported NIfTI dimensionality dim=\[2,"),
    "nifti-dim0-8": (lambda tmp: _patched_nifti(tmp, "<h", 40, 8), r"unsupported NIfTI dimensionality dim=\[8,"),
    "nifti-4d": (lambda tmp: _patched_nifti(tmp, "<8h", 40, 4, 2, 2, 2, 2, 1, 1, 1),
                 r"unsupported NIfTI dimensionality dim=\[4, 2, 2, 2, 2,"),
    "nifti-zero-dim": (lambda tmp: _patched_nifti(tmp, "<8h", 40, 3, 2, 0, 2, 1, 1, 1, 1),
                       r"malformed NIfTI header \(dims \(2, 0, 2\)\)"),
    # 0 * inf: the scaled voxels are NaN, refused with no numpy warning
    "nifti-inf-scaling": (lambda tmp: _patched_nifti(tmp, "<2f", 112, math.inf, math.inf),
                          r"NIfTI volume contains non-finite voxels"),
}


@pytest.mark.parametrize("case", list(_IO_REFUSALS))
def test_io_refusals_name_their_cause(tmp_path, case):
    build, cause = _IO_REFUSALS[case]
    made = build(tmp_path)
    calls = [made] if callable(made) else [lambda: read_volume(made), lambda: read_mask(made)]
    for call in calls:
        with pytest.raises(DataError, match=cause):
            call()


def test_rawjson_missing_field(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps({"dims": [1, 1, 1], "spacing": [1, 1, 1], "dtype": "f32"}))
    with pytest.raises(DataError, match="data_file"):
        read_volume(tmp_path / "m.json")


def test_volume_invariants():
    with pytest.raises(DataError):
        VolumeImage(np.zeros((2, 2)), (1, 1, 1))
    with pytest.raises(DataError):
        VolumeImage(np.zeros((2, 2, 2)), (1, 0, 1))
    with pytest.raises(DataError):
        VolumeImage(np.full((2, 2, 2), np.inf), (1, 1, 1))
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError, match="spacing"):
            VolumeImage(np.zeros((2, 2, 2)), (1, bad, 1))
    img = VolumeImage(np.zeros((2, 2, 2)), (1, 1, 1))
    with pytest.raises(ValueError):
        img.voxels[0, 0, 0] = 1.0  # frozen payload


_VALID_RAWJSON = {"dims": [2, 2, 1], "spacing": [1.0, 0.5, 2.0], "dtype": "f32", "data_file": "v.raw",
                  "modality": "MR"}
# pixdim[0..7], vox_offset, scl_slope, scl_inter
_NIFTI_FLOAT_FIELDS = tuple(76 + 4 * k for k in range(8)) + (108, 112, 116)


def _rawjson(tmp_path, header):
    (tmp_path / "v.raw").write_bytes(np.arange(4, dtype="<f4").tobytes())
    (tmp_path / "v.json").write_text(json.dumps(header))
    return tmp_path / "v.json"


def _data_error_or_valid(path):
    try:
        img = read_volume(path)
    except DataError:
        return
    assert np.isfinite(img.voxels).all()
    assert all(math.isfinite(s) and s > 0 for s in img.spacing)


@pytest.mark.parametrize("changes", [
    {"dims": 14},
    {"dims": ["a", "b", "c"]},
    {"dims": [2.0, 2, 1]},
    {"spacing": None},
    {"spacing": [1.0, float("nan"), 2.0]},
    {"spacing": [1.0, float("inf"), 2.0]},
    {"data_file": 5},
    {"data_file": ""},
])
def test_rawjson_bad_header_field(tmp_path, changes):
    with pytest.raises(DataError, match="RAWJSON|spacing"):
        read_volume(_rawjson(tmp_path, {**_VALID_RAWJSON, **changes}))


def test_rawjson_header_not_a_json_object(tmp_path):
    for header in (b"5", b'"dims spacing dtype data_file"', b"\xff\xfe\xfd"):
        (tmp_path / "h.json").write_bytes(header)
        with pytest.raises(DataError, match="RAWJSON header"):
            read_volume(tmp_path / "h.json")


@pytest.mark.parametrize("offset", [80, 108])  # pixdim[1], vox_offset
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nifti_nonfinite_header_field(tmp_path, offset, value):
    _independent_nifti(tmp_path / "h.nii", (2, 2, 2), (1, 1, 1), np.zeros(8, dtype=np.float32))
    data = bytearray((tmp_path / "h.nii").read_bytes())
    struct.pack_into("<f", data, offset, value)
    (tmp_path / "h.nii").write_bytes(bytes(data))
    with pytest.raises(DataError, match="malformed NIfTI header"):
        read_volume(tmp_path / "h.nii")


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(list(field_paths(_VALID_RAWJSON))), data=st.data())
def test_rawjson_header_field_of_another_json_type(tmp_path, path, data):
    _data_error_or_valid(_rawjson(tmp_path, with_field_of_another_json_type(_VALID_RAWJSON, path, data)))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=st.dictionaries(st.sampled_from(_NIFTI_FLOAT_FIELDS),
                              st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1))
def test_nifti_float_header_field_nonfinite(tmp_path, fields):
    rng = np.random.default_rng(3)
    _independent_nifti(tmp_path / "f.nii", (2, 2, 2), (1, 1, 1), rng.normal(size=8).astype(np.float32))
    data = bytearray((tmp_path / "f.nii").read_bytes())
    for offset, value in fields.items():
        struct.pack_into("<f", data, offset, value)
    (tmp_path / "f.nii").write_bytes(bytes(data))
    _data_error_or_valid(tmp_path / "f.nii")


def _outcome(read, path):
    """What ``read(path)`` returns, or the text of the DataError it raises."""
    try:
        return read(path)
    except DataError as exc:
        return f"DataError: {exc}"


def _random_volume_file(rng, directory, case):
    """A RAWJSON or NIfTI file of random dims and payload, some with a NaN or inf voxel."""
    dims = tuple(int(d) for d in rng.integers(1, 10, size=3))
    dims = tuple(1 if rng.uniform() < 0.1 else d for d in dims)
    n = dims[0] * dims[1] * dims[2]
    kind = ("rawjson", "f32", "i16", "i16-scaled", "f32-scaled")[case % 5]
    if kind.startswith("i16"):
        payload = rng.integers(-3, 4, size=n).astype("<i2")
    else:
        # values at and around the 0.5 threshold, as a mask's payload may hold
        payload = rng.choice([0.0, 0.5, np.nextafter(np.float32(0.5), 1, dtype=np.float32), 1.0], size=n)
        payload = np.where(rng.uniform(size=n) < 0.5, rng.normal(0.5, 2.0, size=n), payload).astype("<f4")
        if rng.uniform() < 0.25:
            payload[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
    spacing = tuple(float(s) for s in rng.choice([0.5, 0.75, 1.0, 1.5, 3.0], size=3))
    path = directory / f"{case}.json" if kind == "rawjson" else directory / f"{case}.nii"
    if kind == "rawjson":
        (directory / f"{case}.raw").write_bytes(payload.tobytes())
        path.write_text(json.dumps({"dims": list(dims), "spacing": list(spacing), "dtype": "f32",
                                    "data_file": f"{case}.raw", "modality": str(rng.choice(["MR", "CT"]))}))
    else:
        scaled = kind.endswith("scaled")
        slope = float(rng.choice([0.25, 2.0, -1.5, np.nan])) if scaled else 1.0
        inter = float(rng.choice([0.0, 0.5, -3.0])) if scaled else 0.0
        _independent_nifti(path, dims, spacing, payload, datatype=4 if kind.startswith("i16") else 16,
                           slope=slope, inter=inter)
    return path, dims


def test_readers_equal_the_strided_reader(tmp_path, monkeypatch):
    rng = np.random.default_rng(20261019)
    seen = {"ragged block": 0, "length-1 axis": 0, "non-finite": 0, "read": 0}
    for case in range(300):
        path, (nx, ny, nz) = _random_volume_file(rng, tmp_path, case)
        # the image copy's y planes per block: from one to more than the volume has
        step = int(rng.integers(1, ny + 2))
        monkeypatch.setattr(volume_module, "_BLOCK_BYTES", step * nx * nz * 8)
        seen["ragged block"] += step < ny and ny % step != 0
        seen["length-1 axis"] += min(nx, ny, nz) == 1
        want = _outcome(strided_read_volume, path)
        got = _outcome(read_volume, path)
        mask = _outcome(read_mask, path)
        if isinstance(want, str):
            seen["non-finite"] += "non-finite" in want
            assert got == want and mask == want, case
            continue
        seen["read"] += 1
        assert np.array_equal(got.voxels, want.voxels), case
        assert (got.spacing, got.modality) == (want.spacing, want.modality)
        assert np.array_equal(mask.voxels, want.voxels > 0.5), case
        for array in (got.voxels, mask.voxels):
            assert array.flags.c_contiguous and not array.flags.writeable
    assert min(seen.values()) >= 20, seen


def _masks(rng):
    yield np.zeros((3, 4, 5), dtype=bool)
    yield np.ones((3, 4, 5), dtype=bool)
    yield np.ones((1, 1, 1), dtype=bool)
    for _ in range(20):
        dims = tuple(int(rng.integers(1, 12)) for _ in range(3))
        yield rng.uniform(size=dims) < rng.uniform(0.0, 1.0)


def test_mask_coords_equal_argwhere():
    # values, dtype, shape and layout: the float sums of shape's covariance follow the layout
    for fg in _masks(np.random.default_rng(16)):
        coords = RoiMask(fg).coords
        want = np.argwhere(fg)
        assert coords.dtype == want.dtype and coords.shape == want.shape and coords.strides == want.strides
        assert np.array_equal(coords, want)
        assert not coords.flags.writeable


def test_pairs_per_direction_counts_the_neighbor_pairs():
    for fg in _masks(np.random.default_rng(17)):
        mask = RoiMask(fg)
        counts = mask.pairs_per_direction
        assert counts.tolist() == np.bincount(mask.neighbor_pairs.direction, minlength=13).tolist()
        assert counts.sum() == mask.neighbor_pairs.a.size and not counts.flags.writeable


def test_empty_mask_has_no_neighbor_pairs():
    mask = RoiMask(np.zeros((3, 4, 5), dtype=bool))
    for array in mask.neighbor_pairs:
        assert array.dtype == np.intp and array.shape == (0,)
    assert mask.pairs_per_direction.tolist() == [0] * 13
