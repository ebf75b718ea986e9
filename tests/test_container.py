"""Binary tensor container: round trips, header validation, token layout."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from slfm.container import (
    MAGIC,
    VERSION,
    read_container,
    rows_to_tensor,
    token_rows,
    write_container,
)
from slfm.errors import ContainerFormatError

HEADER = struct.Struct("<4sHIIII")


def _write_raw(path, magic=MAGIC, version=VERSION, d=2, h=1, w=1, n=1, payload=None):
    if payload is None:
        payload = np.zeros(n * d * h * w, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(magic, version, d, h, w, n))
        fh.write(payload)


# ---------------------------------------------------------------------------
# round trips


def test_round_trip_preserves_f32_bits(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 8, 2, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "a.slfm"
    write_container(path, arr)
    back = read_container(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_round_trip_file_bytes_stable(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((2, 4, 3, 3))
    p1 = tmp_path / "a.slfm"
    p2 = tmp_path / "b.slfm"
    write_container(p1, arr)
    write_container(p2, read_container(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_header_fields(tmp_path):
    path = tmp_path / "a.slfm"
    write_container(path, np.zeros((7, 16, 2, 3)))
    blob = path.read_bytes()
    magic, version, d, h, w, n = HEADER.unpack_from(blob)
    assert magic == b"SLFM"
    assert version == 1
    assert (d, h, w, n) == (16, 2, 3, 7)
    assert len(blob) == HEADER.size + 4 * 7 * 16 * 2 * 3


def test_write_quantizes_to_f32(tmp_path):
    value = 0.1  # not representable in binary32
    path = tmp_path / "a.slfm"
    write_container(path, np.full((1, 1, 1, 1), value))
    back = read_container(path)
    assert back[0, 0, 0, 0] == float(np.float32(value))
    assert back[0, 0, 0, 0] != value


# ---------------------------------------------------------------------------
# write rejections


def test_write_rejects_non_4d():
    with pytest.raises(ContainerFormatError):
        write_container("/dev/null", np.zeros((3, 4)))


def test_write_rejects_nan(tmp_path):
    arr = np.zeros((1, 2, 1, 1))
    arr[0, 0, 0, 0] = np.nan
    with pytest.raises(ContainerFormatError):
        write_container(tmp_path / "a.slfm", arr)


def test_write_rejects_f32_overflow(tmp_path):
    arr = np.full((1, 1, 1, 1), 1e300)
    with pytest.raises(ContainerFormatError):
        write_container(tmp_path / "a.slfm", arr)


# ---------------------------------------------------------------------------
# read rejections


def test_read_rejects_truncated_header(tmp_path):
    path = tmp_path / "a.slfm"
    path.write_bytes(b"SLFM\x01\x00")
    with pytest.raises(ContainerFormatError, match="truncated"):
        read_container(path)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "a.slfm"
    _write_raw(path, magic=b"NOPE")
    with pytest.raises(ContainerFormatError, match="magic"):
        read_container(path)


def test_read_rejects_bad_version(tmp_path):
    path = tmp_path / "a.slfm"
    _write_raw(path, version=9)
    with pytest.raises(ContainerFormatError, match="version"):
        read_container(path)


def test_read_rejects_short_payload(tmp_path):
    path = tmp_path / "a.slfm"
    _write_raw(path, d=4, h=2, w=2, n=3, payload=b"\x00" * 10)
    with pytest.raises(ContainerFormatError) as exc:
        read_container(path)
    # the diagnostic names both the actual and the expected byte counts
    assert "10" in str(exc.value)
    assert str(4 * 3 * 4 * 2 * 2) in str(exc.value)


def test_read_rejects_long_payload(tmp_path):
    path = tmp_path / "a.slfm"
    extra = np.zeros(5, dtype="<f4").tobytes()
    _write_raw(path, d=2, h=1, w=1, n=1, payload=np.zeros(2, dtype="<f4").tobytes() + extra)
    with pytest.raises(ContainerFormatError, match="payload length"):
        read_container(path)


def test_read_rejects_nan_payload(tmp_path):
    path = tmp_path / "a.slfm"
    payload = np.array([np.nan, 0.0], dtype="<f4").tobytes()
    _write_raw(path, d=2, h=1, w=1, n=1, payload=payload)
    with pytest.raises(ContainerFormatError, match="finite"):
        read_container(path)


def test_read_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_container(tmp_path / "missing.slfm")


# ---------------------------------------------------------------------------
# token layout


def test_token_rows_layout():
    # token (item, i, j) is the channel fiber arr[item, :, i, j]
    arr = np.arange(2 * 3 * 2 * 2, dtype=np.float64).reshape(2, 3, 2, 2)
    rows = token_rows(arr)
    assert rows.shape == (2 * 2 * 2, 3)
    assert_allclose(rows[0], arr[0, :, 0, 0], atol=0)
    assert_allclose(rows[1], arr[0, :, 0, 1], atol=0)
    assert_allclose(rows[2], arr[0, :, 1, 0], atol=0)
    assert_allclose(rows[4], arr[1, :, 0, 0], atol=0)


def test_token_rows_are_c_ordered_for_one_item():
    # one item of 2 x 2 tokens: the reshape alone would give a strided view
    arr = np.arange(3 * 2 * 2, dtype=np.float64).reshape(1, 3, 2, 2)
    rows = token_rows(arr)
    assert rows.flags.c_contiguous
    assert np.array_equal(rows, arr[0].reshape(3, 4).T)


def test_rows_to_tensor_inverts(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.standard_normal((3, 5, 4, 2))
    rows = token_rows(arr)
    back = rows_to_tensor(rows, arr.shape)
    assert np.array_equal(back, arr)


def test_rows_to_tensor_rejects_wrong_count():
    with pytest.raises(ContainerFormatError):
        rows_to_tensor(np.zeros((3, 5)), (2, 5, 2, 2))


def test_token_rows_rejects_non_4d():
    with pytest.raises(ContainerFormatError):
        token_rows(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# property: random tensors survive the disk round trip


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=6),
    h=st.integers(min_value=1, max_value=4),
    w=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_round_trip(tmp_path_factory, n, d, h, w, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((n, d, h, w)).astype(np.float32).astype(np.float64)
    path = tmp_path_factory.mktemp("rt") / "x.slfm"
    write_container(path, arr)
    assert np.array_equal(read_container(path), arr)
    assert np.array_equal(
        rows_to_tensor(token_rows(arr), arr.shape), arr
    )
