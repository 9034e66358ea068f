"""Binary tensor blobs and netpbm round trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refseg.errors import CheckpointError, RefsegError
from refseg.tensor_io import (
    read_pgm,
    read_ppm,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_pgm,
    write_ppm,
    write_tensor,
)


def test_eavt_round_trip_f32(tmp_path, rng):
    arr = rng.standard_normal((3, 4, 2)).astype(np.float32)
    write_tensor(tmp_path / "t.eavt", arr)
    back = read_tensor(tmp_path / "t.eavt")
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_eavt_round_trip_f64(rng):
    arr = rng.standard_normal((7,))
    back = tensor_from_bytes(tensor_to_bytes(arr))
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_eavt_scalar_rank_zero():
    arr = np.array(3.5, dtype=np.float32)
    back = tensor_from_bytes(tensor_to_bytes(arr))
    assert back.shape == () and back == np.float32(3.5)


def test_eavt_header_layout():
    arr = np.zeros((2, 3), dtype=np.float32)
    blob = tensor_to_bytes(arr)
    assert blob[:4] == b"EAVT"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert int.from_bytes(blob[8:12], "little") == 2
    assert int.from_bytes(blob[12:16], "little") == 3
    assert len(blob) == 16 + 6 * 4


def test_eavt_bad_magic():
    with pytest.raises(CheckpointError):
        tensor_from_bytes(b"NOPE" + b"\x00" * 16)


def test_eavt_truncated_payload():
    blob = tensor_to_bytes(np.zeros(5, dtype=np.float32))
    with pytest.raises(CheckpointError):
        tensor_from_bytes(blob[:-3])


def test_eavt_rank_8_round_trip():
    arr = np.arange(2, dtype=np.float32).reshape((1,) * 7 + (2,))
    assert np.array_equal(tensor_from_bytes(tensor_to_bytes(arr)), arr)


@pytest.mark.parametrize(
    "shape",
    [(1,) * 9, (2**32, 0)],
    # the second is empty, so nothing large is allocated
    ids=["rank_9", "dim_past_u32"],
)
def test_eavt_writer_refuses_what_the_reader_refuses(shape):
    with pytest.raises(CheckpointError):
        tensor_to_bytes(np.zeros(shape, np.float32))


def test_ppm_round_trip(tmp_path, rng):
    img = rng.random((5, 7, 3)).astype(np.float32)
    write_ppm(tmp_path / "i.ppm", img)
    back = read_ppm(tmp_path / "i.ppm")
    assert back.shape == (5, 7, 3)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6  # quantization only


def test_pgm_round_trip_binary_mask(tmp_path, rng):
    mask = (rng.random((6, 4)) > 0.5).astype(np.uint8) * 255
    write_pgm(tmp_path / "m.pgm", mask)
    back = read_pgm(tmp_path / "m.pgm")
    assert np.array_equal(back, mask)


@pytest.mark.parametrize(
    "read, content",
    [
        (read_ppm, b"P6\n2 2\n255\n" + bytes(11)),
        (read_pgm, b"P5\n2 2\n255\n" + bytes(3)),
        (read_ppm, b"P6\nx 2\n255\n" + bytes(12)),
        (read_pgm, b"P5\n2 2.0\n255\n" + bytes(4)),
        (read_pgm, b"P5\n2 2\nmax\n" + bytes(4)),
        (read_ppm, b"P6\n2 2\n0\n" + bytes(12)),
        (read_pgm, b"P5\n2 2\n256\n" + bytes(4)),
        # the declared size is checked against the bytes in the file before
        # anything is read, so nothing of that size is allocated
        (read_ppm, b"P6\n99999999999999999999 1\n255\n" + bytes(12)),
        (read_pgm, b"P5\n4000000000 4000000000\n255\n" + bytes(4)),
        (read_ppm, b"P6\n0 5\n255\n"),
        (read_pgm, b"P5\n3 0\n255\n"),
        (read_ppm, b"P6\n2 1\n100\n" + bytes(5) + b"\xff"),
        (read_pgm, b"P5\n2 1\n100\n" + bytes(1) + b"\xff"),
    ],
    ids=[
        "truncated_ppm", "truncated_pgm", "text_width", "float_height", "text_maxval", "maxval_0", "maxval_256",
        "width_past_int64", "16e18_pixels", "zero_width", "zero_height", "ppm_sample_above_maxval",
        "pgm_sample_above_maxval",
    ],
)
def test_malformed_netpbm_rejected(tmp_path, read, content):
    path = tmp_path / "bad.pnm"
    path.write_bytes(content)
    with pytest.raises(CheckpointError):
        read(path)


@pytest.mark.parametrize(
    "dims",
    [4 * [2**16], [2**32 - 1, 2**32 - 1, 0]],
    # 2**16 ** 4 elements wrap a 64-bit product to 0, which matches an empty
    # payload; numpy refuses the empty shape
    ids=["count_past_2_64", "empty_shape_numpy_refuses"],
)
def test_eavt_impossible_dims_rejected(dims):
    with pytest.raises(CheckpointError):
        tensor_from_bytes(b"EAVT" + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims))


def _valid_files():
    rng = np.random.default_rng(7)
    return {
        "eavt_f32": tensor_to_bytes(rng.standard_normal((3, 2, 2)).astype(np.float32)),
        "eavt_f64": tensor_to_bytes(rng.standard_normal((5,))),
        "ppm": b"P6\n# comment\n3 2\n255\n" + rng.integers(0, 256, 18, dtype=np.uint8).tobytes(),
        "pgm": b"P5\n2 3\n200\n" + rng.integers(0, 201, 6, dtype=np.uint8).tobytes(),
    }


VALID_FILES = _valid_files()
READERS = {"eavt_f32": read_tensor, "eavt_f64": read_tensor, "ppm": read_ppm, "pgm": read_pgm}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_or_raises_typed_error(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(sorted(VALID_FILES)), label="kind")
    damaged = bytearray(VALID_FILES[kind])
    if data.draw(st.booleans(), label="truncate"):
        del damaged[data.draw(st.integers(0, len(damaged) - 1), label="length") :]
    if damaged:
        for bit in data.draw(st.lists(st.integers(0, 8 * len(damaged) - 1), max_size=3), label="bits"):
            damaged[bit // 8] ^= 1 << (bit % 8)
    path = tmp_path_factory.getbasetemp() / f"damaged.{kind}"
    path.write_bytes(bytes(damaged))
    try:
        READERS[kind](path)
    except RefsegError:
        pass
